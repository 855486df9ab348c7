package main

import (
	"flag"
	"io"
	"slices"
	"strings"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]bool{
		"FulltoPartial": true,
		"fulltopartial": true,
		"OnlyPartial":   true,
		"DEFAULT":       true,
		"NewHome":       true,
		"FullOnly":      true,
		"bogus":         false,
		"":              false,
	}
	for in, ok := range cases {
		_, err := parsePolicy(in)
		if ok && err != nil {
			t.Errorf("parsePolicy(%q) = %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("parsePolicy(%q) accepted", in)
		}
	}
}

// TestFlagSet pins the command line: the simulator takes no transport
// flag, and handing it one is a parse error, not a silent no-op.
func TestFlagSet(t *testing.T) {
	want := []string{"cons", "events", "home", "kind", "metrics-addr", "ms-mtbf", "policy",
		"runs", "scenario", "seed", "series", "simworkers", "users", "vms"}
	// A copy of the flags main parses, without the test binary's own and
	// without flag.CommandLine's exit-on-error.
	fs := flag.NewFlagSet("oasis-sim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var got []string
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			fs.Var(f.Value, f.Name, f.Usage)
			got = append(got, f.Name)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
	for _, gone := range []string{"shards", "pool", "prefetch-streams", "upload-streams", "backends", "replicas", "compress-dict"} {
		if err := fs.Parse([]string{"-" + gone, "2"}); err == nil {
			t.Errorf("-%s parsed; want it rejected", gone)
		}
	}
	if err := fs.Parse([]string{"-home", "6", "-ms-mtbf", "2h"}); err != nil {
		t.Errorf("a valid command line: %v", err)
	}
}
