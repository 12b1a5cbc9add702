package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCaptured calls run with args and returns what it printed to stdout.
func runCaptured(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	w.Close()
	return <-out, runErr
}

// A fleet writes only the merged metrics; every per-run output flag must
// be refused before any trial runs rather than silently dropped.
func TestFleetRejectsSingleRunFlags(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range [][]string{
		{"-trace", filepath.Join(dir, "t.jsonl")},
		{"-tapframes", "5"},
		{"-pcap", filepath.Join(dir, "f.pcap")},
		{"-dot", filepath.Join(dir, "v.dot")},
	} {
		args := append([]string{"-trials", "2", "-duration", "1s"}, tc...)
		out, err := runCaptured(t, args...)
		if err == nil || !strings.Contains(err.Error(), tc[0]) {
			t.Errorf("%s under -trials 2: err = %v, want a %s error", tc[0], err, tc[0])
		}
		if out != "" {
			t.Errorf("%s under -trials 2 ran trials:\n%s", tc[0], out)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("rejected runs left files: %v", entries)
	}
}

// A traced single run carries the topology record in its span stream:
// the links the controller discovered appear as link.added spans, and
// the ring kept every span.
func TestTraceCarriesTopologyChanges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	out, err := runCaptured(t, "-scenario", "fig9", "-duration", "10s", "-quiet", "-trace", path)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "(0 dropped from the ring)") {
		t.Errorf("trace ring dropped spans or did not report:\n%s", out)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"name":"link.added"`) {
		t.Errorf("%s has no link.added span", path)
	}
}
