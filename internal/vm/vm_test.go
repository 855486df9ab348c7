package vm

import (
	"strings"
	"testing"

	"oasis/internal/units"
)

func TestFootprint(t *testing.T) {
	v := &VM{ID: 1, Alloc: 4 * units.GiB, WorkingSet: 165 * units.MiB}
	if got := v.Footprint(); got != 4*units.GiB {
		t.Errorf("full footprint = %v, want 4 GiB", got)
	}
	v.Partial = true
	got := v.Footprint()
	if got < 165*units.MiB || got > 166*units.MiB {
		t.Errorf("partial footprint = %v, want 166 MiB (chunk rounded)", got)
	}
	if got%units.ChunkSize != 0 {
		t.Errorf("partial footprint %v not chunk aligned", got)
	}
}

func TestChunkRound(t *testing.T) {
	cases := []struct {
		in, want units.Bytes
	}{
		{0, units.ChunkSize},
		{1, units.ChunkSize},
		{units.ChunkSize, units.ChunkSize},
		{units.ChunkSize + 1, 2 * units.ChunkSize},
	}
	for _, c := range cases {
		if got := ChunkRound(c.in); got != c.want {
			t.Errorf("ChunkRound(%d) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestResidency(t *testing.T) {
	v := &VM{Home: 3, Host: 3}
	if v.Consolidated() {
		t.Error("VM on home misclassified")
	}
	v.Host = 7
	if !v.Consolidated() {
		t.Error("consolidated VM misclassified")
	}
	v.Host = NoHost
	if v.Consolidated() {
		t.Error("unplaced VM counted as consolidated")
	}
}

func TestStrings(t *testing.T) {
	v := &VM{ID: 42, Class: WebServer, Active: true, Home: 1, Host: 2}
	s := v.String()
	for _, want := range []string{"vm0042", "web", "active", "full"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if Desktop.String() != "desktop" || DBServer.String() != "db" || Class(9).String() != "unknown" {
		t.Error("Class.String broken")
	}
}
