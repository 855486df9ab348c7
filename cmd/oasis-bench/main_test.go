package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONNeedsABenchmark: -json without an -experiment that has a JSON
// artifact is a usage error that names the ones that do, not a silent
// default to some benchmark, and writes nothing.
func TestJSONNeedsABenchmark(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	for _, args := range [][]string{
		{"-json", path},
		{"-experiment", "fig5", "-json", path},
		{"-experiment", "reattach", "-json", path},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("%v: exit 0, want non-zero", args)
		}
		for _, id := range []string{"sim", "cluster", "rebalance"} {
			if !strings.Contains(stderr.String(), id) {
				t.Errorf("%v: stderr %q does not name %q", args, stderr.String(), id)
			}
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%v: wrote %s", args, path)
		}
	}
}
