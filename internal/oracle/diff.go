package oracle

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"rampage/internal/mem"
	"rampage/internal/sim"
	"rampage/internal/stats"
	"rampage/internal/trace"
)

// Divergence describes the first point at which a subject machine's
// behaviour departed from the oracle's. A nil *Divergence means the two
// machines agreed reference for reference.
type Divergence struct {
	// Index is the position in the replayed trace of the reference at
	// (or after) which the machines disagreed; -1 when the divergence
	// was only visible in the final report.
	Index int
	// Ref is the reference at Index (zero when Index is -1).
	Ref mem.Ref
	// Where names the disagreeing channel: "error", "blockUntil",
	// "consumed", or "report".
	Where string
	// Field is the first differing stats.Report field when Where is
	// "report".
	Field string
	// OracleVal and SubjectVal are the disagreeing values, formatted.
	OracleVal  string
	SubjectVal string
	// OracleReport and SubjectReport are snapshots taken at the
	// divergence point.
	OracleReport  stats.Report
	SubjectReport stats.Report
	// Context is the oracle machine's state summary at the divergence
	// point, when the machine provides one.
	Context string
}

// String renders the pointed divergence report.
func (d *Divergence) String() string {
	if d == nil {
		return "<no divergence>"
	}
	var b strings.Builder
	if d.Index >= 0 {
		fmt.Fprintf(&b, "divergence at reference %d (%s): %s", d.Index, d.Ref, d.Where)
	} else {
		fmt.Fprintf(&b, "divergence in final state: %s", d.Where)
	}
	if d.Field != "" {
		fmt.Fprintf(&b, " field %s", d.Field)
	}
	fmt.Fprintf(&b, "\n  oracle:  %s\n  subject: %s", d.OracleVal, d.SubjectVal)
	if d.Context != "" {
		fmt.Fprintf(&b, "\n  oracle state: %s", d.Context)
	}
	fmt.Fprintf(&b, "\n  oracle cycles %d, subject cycles %d",
		d.OracleReport.Cycles, d.SubjectReport.Cycles)
	return b.String()
}

// stateSummarizer is implemented by the oracle machines; divergence
// reports include the summary when available.
type stateSummarizer interface{ StateSummary() string }

// summarize extracts a state summary from a machine if it offers one.
func summarize(m sim.Machine) string {
	if s, ok := m.(stateSummarizer); ok {
		return s.StateSummary()
	}
	return ""
}

// compareReports returns the name and values of the first differing
// field, or "" when the reports are identical. The fast path is one
// comparable-struct equality; reflection runs only on mismatch.
func compareReports(o, s *stats.Report) (field, oval, sval string) {
	if *o == *s {
		return "", "", ""
	}
	vo := reflect.ValueOf(*o)
	vs := reflect.ValueOf(*s)
	t := vo.Type()
	for i := 0; i < t.NumField(); i++ {
		fo, fs := vo.Field(i), vs.Field(i)
		if fo.Interface() != fs.Interface() {
			return t.Field(i).Name, fmt.Sprint(fo.Interface()), fmt.Sprint(fs.Interface())
		}
	}
	return "report", fmt.Sprint(*o), fmt.Sprint(*s) // unreachable: *o != *s
}

// maxRetries bounds the block-retry loop on a single reference. A
// switch-on-miss fault retries once after its page arrives; anything
// deeper indicates a livelock in one of the machines.
const maxRetries = 8

// Lockstep replays refs through the oracle and the subject one
// reference at a time, comparing errors, blocking times and the full
// report after every reference: LockstepBatch with one-reference
// windows. It returns the first divergence, or nil when the machines
// agree over the whole trace.
func Lockstep(oracle, subject sim.Machine, refs []mem.Ref) *Divergence {
	return LockstepBatch(oracle, subject, refs, 1)
}

// step runs refs[i] on m as a one-reference window.
func step(m sim.Machine, refs []mem.Ref, i int) (mem.Cycles, error) {
	_, block, err := m.ExecBatch(refs[i : i+1])
	return block, err
}

// LockstepBatch replays refs through the subject's ExecBatch path in
// windows of batchSize references, driving the oracle one reference at
// a time over each consumed prefix, and compares the reports at every
// window boundary. A divergence's Index is the start of the window in
// which it surfaced, so one-reference windows pin the exact reference.
func LockstepBatch(oracle, subject sim.Machine, refs []mem.Ref, batchSize int) *Divergence {
	if batchSize < 1 {
		batchSize = 64
	}
	div := func(i int, where, oval, sval string) *Divergence {
		d := &Divergence{
			Index: i, Where: where,
			OracleVal: oval, SubjectVal: sval,
			OracleReport:  *oracle.Report(),
			SubjectReport: *subject.Report(),
			Context:       summarize(oracle),
		}
		if i < len(refs) {
			d.Ref = refs[i]
		}
		return d
	}
	pos := 0
	retries := 0
	for pos < len(refs) {
		start := pos
		consumed, sb, serr := subject.ExecBatch(refs[pos:min(pos+batchSize, len(refs))])
		// Each reference of the consumed prefix completed in the
		// subject, so the oracle must complete it too.
		for j := pos; j < pos+consumed; j++ {
			ob, oerr := step(oracle, refs, j)
			if oerr != nil {
				return div(j, "error", fmt.Sprint(oerr), "<executed>")
			}
			if ob != 0 {
				return div(j, "blockUntil", fmt.Sprint(ob), "0 (executed)")
			}
		}
		pos += consumed
		if consumed > 0 {
			retries = 0
		}
		if serr != nil {
			// The subject rejected refs[pos]; the oracle must reject it
			// too.
			if _, oerr := step(oracle, refs, pos); oerr == nil {
				return div(pos, "error", "<executed>", fmt.Sprint(serr))
			}
			return nil // both rejected the reference: agreement
		}
		if sb != 0 {
			// The subject blocked at refs[pos]: the oracle must block at
			// the same cycle. Then both wait and the window retries,
			// exactly as the scheduler would with one process.
			ob, oerr := step(oracle, refs, pos)
			if oerr != nil {
				return div(pos, "error", fmt.Sprint(oerr), "<blocked>")
			}
			if ob != sb {
				return div(pos, "blockUntil", fmt.Sprint(ob), fmt.Sprint(sb))
			}
			oracle.AdvanceTo(ob)
			subject.AdvanceTo(sb)
			retries++
			if retries > maxRetries {
				return div(pos, "retry-loop", "reference never completed", "reference never completed")
			}
		}
		if f, ov, sv := compareReports(oracle.Report(), subject.Report()); f != "" {
			d := div(start, "report", ov, sv)
			d.Field = f
			return d
		}
	}
	return nil
}

// NarrowReader returns a Reader whose ReadBatch delivers at most k
// references per call and which hides any columnar backing, so a
// scheduler reading it runs row windows of at most k references. With
// k = 1 that is the reference-at-a-time schedule of the paper's
// simulator, which every wider window must reproduce bit for bit.
func NarrowReader(r trace.Reader, k int) trace.Reader { return &narrowReader{r: r, k: k} }

type narrowReader struct {
	r trace.Reader
	k int
}

func (n *narrowReader) Next() (mem.Ref, error) { return n.r.Next() }

func (n *narrowReader) ReadBatch(dst []mem.Ref) (int, error) {
	return trace.ReadBatch(n.r, dst[:min(len(dst), n.k)])
}

// DiffRun drives the oracle and the subject through two identically
// configured schedulers over the same multiprogrammed workload —
// context-switch traces, quantum boundaries, switch-on-miss blocking
// and all — and compares the final reports. The oracle reads every
// stream through NarrowReader(·, 1), the reference-at-a-time schedule;
// the subject reads each stream through subjectReader and runs
// whatever windows that source gives it.
func DiffRun(oracle, subject sim.Machine, streams [][]mem.Ref, cfg sim.SchedulerConfig, subjectReader func([]mem.Ref) trace.Reader) (*Divergence, error) {
	run := func(m sim.Machine, reader func([]mem.Ref) trace.Reader) (*stats.Report, error) {
		readers := make([]trace.Reader, len(streams))
		for i, s := range streams {
			readers[i] = reader(s)
		}
		sched, err := sim.NewScheduler(m, readers, cfg)
		if err != nil {
			return nil, err
		}
		return sched.Run(context.Background())
	}
	orep, oerr := run(oracle, func(s []mem.Ref) trace.Reader { return NarrowReader(trace.NewSliceReader(s), 1) })
	srep, serr := run(subject, subjectReader)
	if (oerr != nil) != (serr != nil) {
		return &Divergence{
			Index: -1, Where: "error",
			OracleVal: fmt.Sprint(oerr), SubjectVal: fmt.Sprint(serr),
			Context: summarize(oracle),
		}, nil
	}
	if oerr != nil {
		return nil, fmt.Errorf("oracle: both runs failed: %w", oerr)
	}
	if f, ov, sv := compareReports(orep, srep); f != "" {
		return &Divergence{
			Index: -1, Where: "report", Field: f,
			OracleVal: ov, SubjectVal: sv,
			OracleReport:  *orep,
			SubjectReport: *srep,
			Context:       summarize(oracle),
		}, nil
	}
	return nil, nil
}
