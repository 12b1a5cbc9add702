package main

import (
	"fmt"
	"io"
	"os"
	"regexp"
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

// scaleRow matches one k=4 row of the scale table and captures the
// answered and sent ping counts.
var scaleRow = regexp.MustCompile(`(?m)^4\s+20\s+16\s+\d+\s+\d+\s+\d+\s+(\d+)/(\d+)\s`)

func TestScaleAnswersEveryPing(t *testing.T) {
	out, err := runCaptured(t, "-experiment", "scale", "-scalek", "4")
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	m := scaleRow.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no k=4 row in output:\n%s", out)
	}
	if m[1] != m[2] || m[2] == "0" {
		t.Fatalf("pings answered %s of %s:\n%s", m[1], m[2], out)
	}
}

func TestRejectsShardsBelowOne(t *testing.T) {
	for _, n := range []string{"0", "-3"} {
		out, err := runCaptured(t, "-experiment", "scale", "-scalek", "4", "-shards", n)
		if err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Fatalf("-shards %s: err = %v, want a -shards error", n, err)
		}
		if out != "" {
			t.Fatalf("-shards %s ran an experiment:\n%s", n, out)
		}
	}
}

func TestParseDoSFloors(t *testing.T) {
	for _, tc := range []struct {
		flag string
		want string
	}{
		{"", "map[]"},
		{"synflood=280000,saturation=40000", "map[saturation:40000 synflood:280000]"},
		{"synflood=280000", "map[synflood:280000]"},
	} {
		got, err := parseDoSFloors(tc.flag)
		if err != nil || fmt.Sprint(got) != tc.want {
			t.Errorf("parseDoSFloors(%q) = %v, %v; want %s", tc.flag, got, err, tc.want)
		}
	}
	for _, bad := range []string{"30000", "fast", "synflood=", "flood=1000", "synflood=1,saturation"} {
		if _, err := parseDoSFloors(bad); err == nil {
			t.Errorf("parseDoSFloors(%q) accepted a malformed floor", bad)
		}
	}
	out, err := runCaptured(t, "-experiment", "dos", "-dosfloor", "flood=1000")
	if err == nil || !strings.Contains(err.Error(), "-dosfloor") {
		t.Fatalf("bad -dosfloor: err = %v, want a -dosfloor error", err)
	}
	if out != "" {
		t.Fatalf("bad -dosfloor ran an experiment:\n%s", out)
	}
}
