package sim

import (
	"errors"
	"fmt"
	"io"

	"rampage/internal/mem"
	"rampage/internal/trace"
)

// Replay drives a machine directly from a pre-interleaved reference
// stream (for example a trace file written by rampage-trace), with no
// scheduler: references execute in stream order, kernel-tagged
// references included. Blocking machines (RAMpage with switch-on-miss)
// are rejected — without a scheduler there is nothing to switch to.
func Replay(m Machine, r trace.Reader) error {
	buf := make([]mem.Ref, rowWindow)
	for {
		n, rerr := trace.ReadBatch(r, buf)
		_, block, err := m.ExecBatch(buf[:n])
		if err != nil {
			return err
		}
		if block != 0 {
			return fmt.Errorf("sim: Replay cannot drive a switch-on-miss machine (reference blocked)")
		}
		if errors.Is(rerr, io.EOF) || (n == 0 && rerr == nil) {
			return nil
		}
		if rerr != nil {
			return rerr
		}
	}
}
