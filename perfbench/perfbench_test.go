package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestMain also serves as the calibration child process the benchmark
// starts from its own executable.
func TestMain(m *testing.M) {
	if os.Getenv(calibratorEnv) != "" {
		if err := serveCalibrations(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench calibrator:", err)
			os.Exit(1)
		}
		return
	}
	code := m.Run()
	if err := stopCalibrator(); err != nil && code == 0 {
		fmt.Fprintln(os.Stderr, "perfbench calibrator:", err)
		code = 1
	}
	os.Exit(code)
}

// TestReducedScripts runs the k=4 variant of every workload in both
// modes: every invariant must hold and every metric BENCHMARK.json names
// must be emitted.
func TestReducedScripts(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range workloads {
		w := full.reduced()
		t.Run(w.name, func(t *testing.T) {
			o := options{workload: w.name, seed: 3, seconds: 0}
			untraced := &report{w: io.Discard}
			if _, err := measure(w, o, untraced); err != nil {
				t.Fatal(err)
			}
			tr := &report{w: io.Discard}
			if _, err := traced(w, o, tr, filepath.Join(t.TempDir(), w.name)); err != nil {
				t.Fatal(err)
			}
			if untraced.fp != tr.fp {
				t.Fatalf("fingerprint differs between modes: %s untraced, %s traced", untraced.fp, tr.fp)
			}
			for _, m := range spec.EndToEnd {
				if v, ok := untraced.get(m.Name); !ok || v.Unit != m.Unit {
					t.Errorf("end-to-end metric %s %s not emitted", m.Name, m.Unit)
				}
			}
			for _, m := range spec.PerLayer {
				if v, ok := tr.get(m.Name); !ok || v.Unit != m.Unit {
					t.Errorf("per-layer metric %s %s not emitted", m.Name, m.Unit)
				}
			}
		})
	}
}

// TestEquivalence pins that a stepped script runs the same universe as
// the core runner the test suite gates: same events, byte-identical
// merged Prometheus snapshot. Every traced run checks the full-size
// scripts this way; this test covers k=4 variants of the fat-tree and
// saturation scripts, which nothing else compares.
func TestEquivalence(t *testing.T) {
	cases := []*workload{}
	for _, name := range []string{"fattree16", "saturation"} {
		w := *findWorkload(name)
		w.name, w.k = name+"-k4", 4
		cases = append(cases, &w)
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			r, err := runRep(w, 5, false, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := w.reference(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			if r.fp.events != ref.events || r.fp.prom != ref.prom {
				t.Fatalf("stepped %s, reference %s", r.fp, ref)
			}
		})
	}
}
