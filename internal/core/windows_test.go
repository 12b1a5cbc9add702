package core

import (
	"testing"
	"time"
)

func TestDowntimeWindows(t *testing.T) {
	rows, err := RunDowntimeWindows(91, 20, false, []time.Duration{
		30 * time.Millisecond, time.Second, 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	tiny, second, ten := rows[0], rows[1], rows[2]
	// A 30ms window is shorter than the calibrated probe timeout alone
	// (~34ms, HijackDistributions.ProbeTimeouts): mostly missed.
	if tiny.SuccessRate > 0.2 {
		t.Fatalf("30ms window success = %.2f, want ~0", tiny.SuccessRate)
	}
	// Seconds-scale live-migration windows are plenty (the paper's point).
	if second.SuccessRate < 0.9 {
		t.Fatalf("1s window success = %.2f, want ~1", second.SuccessRate)
	}
	if ten.SuccessRate < second.SuccessRate {
		t.Fatal("success must be monotone in window size")
	}
	// Most of a seconds-scale window remains usable after completion.
	if second.UsableFraction < 0.85 {
		t.Fatalf("1s usable fraction = %.2f, want > 0.85", second.UsableFraction)
	}
	if ten.UsableFraction < 0.98 {
		t.Fatalf("10s usable fraction = %.2f", ten.UsableFraction)
	}
}

func TestProfileSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	rows, err := RunProfileSweep(92)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ProfileSweepRow{}
	for _, r := range rows {
		if r.TimeToFabricate < 0 || r.LingerAfterStop < 0 {
			t.Fatalf("%s: attack incomplete: %+v", r.Controller, r)
		}
		byName[r.Controller] = r
	}
	fl, pox := byName["Floodlight"], byName["POX"]
	// POX probes 3x as often: fabrication completes no slower than under
	// Floodlight (both may catch a connect-time probe, so allow equality
	// with slack), and its 10s timeout evicts the dead link sooner than
	// Floodlight's 35s.
	if pox.LingerAfterStop >= fl.LingerAfterStop {
		t.Fatalf("POX linger %v vs Floodlight %v: timeout ordering violated",
			pox.LingerAfterStop, fl.LingerAfterStop)
	}
	if fl.LingerAfterStop > 40*time.Second || pox.LingerAfterStop > 12*time.Second {
		t.Fatalf("linger beyond profile timeouts: %+v", rows)
	}
}
