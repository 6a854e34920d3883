package sim

import (
	"reflect"
	"testing"

	"rampage/internal/mem"
)

func newBatchBaseline(t *testing.T) *Baseline {
	t.Helper()
	b, err := NewBaseline(BaselineConfig{
		Params:    DefaultParams(1000),
		L2Bytes:   256 << 10,
		L2Block:   1024,
		L2Assoc:   1,
		DRAMBytes: 16 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newBatchRAMpage(t *testing.T) *RAMpage {
	t.Helper()
	r, err := NewRAMpage(RAMpageConfig{
		Params:    DefaultParams(1000),
		SRAMBytes: 264 << 10,
		PageBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// batchWorkload is a small user-mode reference mix: a code loop plus a
// data walk confined to a few pages, so the steady state is all TLB
// and L1 hits with occasional L1 conflict traffic at the start.
func batchWorkload(n int) []mem.Ref {
	refs := make([]mem.Ref, n)
	for i := range refs {
		switch i % 3 {
		case 0:
			refs[i] = mem.Ref{PID: 1, Kind: mem.IFetch, Addr: mem.VAddr(0x1000 + uint64(i%256)*4)}
		case 1:
			refs[i] = mem.Ref{PID: 1, Kind: mem.Load, Addr: mem.VAddr(0x4000 + uint64(i%128)*8)}
		default:
			refs[i] = mem.Ref{PID: 1, Kind: mem.Store, Addr: mem.VAddr(0x5000 + uint64(i%64)*8)}
		}
	}
	return refs
}

// TestExecBatchMatchesExec runs the same reference stream through
// one-reference ExecBatch windows (the paper's reference-at-a-time
// model), 129-wide ExecBatch windows and 129-wide ExecBatchColumnar
// windows, and requires bit-identical reports (the scheduler-level
// equivalence tests in internal/harness cover the blocking
// switch-on-miss path).
func TestExecBatchMatchesExec(t *testing.T) {
	refs := batchWorkload(4096)
	pid, kinds, addrs := colsOf(t, refs)
	run := func(t *testing.T, one, rows, cols Machine) {
		t.Helper()
		for _, ref := range refs {
			if _, err := exec1(one, ref); err != nil {
				t.Fatal(err)
			}
		}
		for off := 0; off < len(refs); off += 129 { // deliberately unaligned windows
			end := min(off+129, len(refs))
			if n, block, err := rows.ExecBatch(refs[off:end]); err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatch = %d, %d, %v", n, block, err)
			}
			if n, block, err := cols.ExecBatchColumnar(pid, kinds[off:end], addrs[off:end]); err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		if !reflect.DeepEqual(one.Report(), rows.Report()) {
			t.Errorf("reports diverge:\n1-wide:   %+v\n129-wide: %+v", one.Report(), rows.Report())
		}
		if !reflect.DeepEqual(one.Report(), cols.Report()) {
			t.Errorf("reports diverge:\n1-wide:  %+v\ncolumns: %+v", one.Report(), cols.Report())
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t), newBatchBaseline(t), newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t), newBatchRAMpage(t), newBatchRAMpage(t)) })
}

// TestExecBatchZeroAllocSteadyState pins the hot path: once the TLB
// and L1 are warm, executing a batch must not allocate at all.
func TestExecBatchZeroAllocSteadyState(t *testing.T) {
	refs := batchWorkload(512)
	run := func(t *testing.T, m Machine) {
		t.Helper()
		// Warm up: fault the pages in and fill the caches.
		for i := 0; i < 4; i++ {
			if n, block, err := m.ExecBatch(refs); err != nil || block != 0 || n != len(refs) {
				t.Fatalf("warm-up ExecBatch = %d, %d, %v", n, block, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := m.ExecBatch(refs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state ExecBatch allocates %.1f times per batch", allocs)
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t)) })
}

// colsOf splits rows into the single-PID columnar form that
// ExecBatchColumnar consumes.
func colsOf(t *testing.T, refs []mem.Ref) (mem.PID, []mem.RefKind, []mem.VAddr) {
	t.Helper()
	kinds := make([]mem.RefKind, len(refs))
	addrs := make([]mem.VAddr, len(refs))
	for i, r := range refs {
		if r.PID != refs[0].PID {
			t.Fatal("colsOf needs a single-PID stream")
		}
		kinds[i], addrs[i] = r.Kind, r.Addr
	}
	return refs[0].PID, kinds, addrs
}

// TestExecBatchColumnarMatchesExecBatch pins the row adapter's
// splitting: row windows wider than its column scratch, mixing several
// user PIDs and kernel references, must report bit-identically to the
// same stream fed to ExecBatchColumnar one same-PID run at a time.
func TestExecBatchColumnarMatchesExecBatch(t *testing.T) {
	refs := batchWorkload(4096)
	for i := range refs {
		switch {
		case i%1000 >= 900:
			refs[i] = kref(refs[i].Kind, uint64(i%64)*8)
		case i%700 >= 350:
			refs[i].PID = 2
		}
	}
	run := func(t *testing.T, rows, cols Machine) {
		t.Helper()
		for off := 0; off < len(refs); off += 1000 {
			end := min(off+1000, len(refs))
			if n, block, err := rows.ExecBatch(refs[off:end]); err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatch = %d, %d, %v", n, block, err)
			}
		}
		for off := 0; off < len(refs); {
			end := off + 1
			for end < len(refs) && refs[end].PID == refs[off].PID {
				end++
			}
			pid, kinds, addrs := colsOf(t, refs[off:end])
			if n, block, err := cols.ExecBatchColumnar(pid, kinds, addrs); err != nil || block != 0 || n != end-off {
				t.Fatalf("ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
			off = end
		}
		if !reflect.DeepEqual(rows.Report(), cols.Report()) {
			t.Errorf("reports diverge:\nrows: %+v\ncols: %+v", rows.Report(), cols.Report())
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t), newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t), newBatchRAMpage(t)) })
}

// TestExecBatchColumnarZeroAllocSteadyState pins the columnar hot
// path like TestExecBatchZeroAllocSteadyState pins the row path.
func TestExecBatchColumnarZeroAllocSteadyState(t *testing.T) {
	refs := batchWorkload(2048)
	pid, kinds, addrs := colsOf(t, refs)
	run := func(t *testing.T, m Machine) {
		t.Helper()
		for i := 0; i < 4; i++ {
			if n, block, err := m.ExecBatchColumnar(pid, kinds, addrs); err != nil || block != 0 || n != len(kinds) {
				t.Fatalf("warm-up ExecBatchColumnar = %d, %d, %v", n, block, err)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, err := m.ExecBatchColumnar(pid, kinds, addrs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("steady-state ExecBatchColumnar allocates %.1f times per batch", allocs)
		}
	}
	t.Run("baseline", func(t *testing.T) { run(t, newBatchBaseline(t)) })
	t.Run("rampage", func(t *testing.T) { run(t, newBatchRAMpage(t)) })
}
