// The memcpy seeding gate and the seeder × fixpoint-pool interaction.
//
// The gate's exact condition (see usesMemcpy in session.go): summary
// seeding is disabled for a program iff any procedure contains a call
// to the memcpy builtin. The gate is whole-program on purpose — the
// memcpy transfer function sweeps the location-set table, so its output
// depends on which location sets the *rest of the program* happened to
// materialise; a per-procedure gate would reuse summaries whose table
// context changed. These tests pin both directions of the condition and
// the warm ≡ cold guarantee on the gated programs.

package session_test

import (
	"testing"

	"mtpa"
	"mtpa/internal/bench"
)

// TestSessionMemcpyGate checks the gate on the two corpus programs that
// call memcpy (ck, queens — seeding disabled, results still exactly
// cold) and on one that does not (fib — seeding enabled).
func TestSessionMemcpyGate(t *testing.T) {
	opts := mtpa.Options{Mode: mtpa.Multithreaded}
	for _, name := range []string{"ck", "queens"} {
		t.Run(name, func(t *testing.T) {
			p, err := bench.Load(name)
			if err != nil {
				t.Fatal(err)
			}
			filename := name + ".clk"
			sess := mtpa.NewSession(opts)
			if _, err := sess.Update(filename, p.Source); err != nil {
				t.Fatal(err)
			}
			edited := procEdits(t, filename, p.Source)[0]
			up, err := sess.Update(filename, edited)
			if err != nil {
				t.Fatal(err)
			}
			if !up.Stats.SeederDisabled {
				t.Errorf("%s calls memcpy but the seeder ran: %+v", name, up.Stats)
			}
			if up.Stats.Seed.Hits != 0 || up.Stats.Seed.Misses != 0 {
				t.Errorf("%s reported seed traffic with the seeder disabled: %+v", name, up.Stats.Seed)
			}
			if got, want := up.Result.Fingerprint(), coldFingerprint(t, filename, edited, opts); got != want {
				t.Errorf("%s: gated warm fingerprint %s != cold %s", name, got, want)
			}
		})
	}
	t.Run("fib", func(t *testing.T) {
		p, err := bench.Load("fib")
		if err != nil {
			t.Fatal(err)
		}
		sess := mtpa.NewSession(opts)
		if _, err := sess.Update("fib.clk", p.Source); err != nil {
			t.Fatal(err)
		}
		up, err := sess.Update("fib.clk", procEdits(t, "fib.clk", p.Source)[0])
		if err != nil {
			t.Fatal(err)
		}
		if up.Stats.SeederDisabled {
			t.Errorf("fib does not call memcpy but seeding was disabled: %+v", up.Stats)
		}
	})
}
