package cluster

import (
	"fmt"

	"oasis/internal/pagestore"
	"oasis/internal/simtime"
	"oasis/internal/vm"
)

// Event is one entry in the manager's decision log. Every action the
// manager commits — a VM move or a host power change — is one event,
// logged when the simulator applies it, so replaying the log in order over
// the initial placement gives the cluster's state at any instant; that is
// how agent.Applier drives live agents with this policy. A few kinds only
// say why the actions after them happen (exhaust and the fault kinds).
type Event struct {
	At simtime.Time
	// Seq numbers logged events from 0: a gap tells a reader the bounded
	// log dropped entries.
	Seq  int
	Kind string
	// VM is the VM the event concerns (0 for a host event). A move takes
	// it from host From to Host (the same host for a conversion), where it
	// then runs as a partial VM if Partial, else in full. A host event
	// names its host in both From and Host.
	VM      pagestore.VMID
	From    int
	Host    int
	Partial bool
	Note    string
}

// Move reports whether the event moved a VM (or converted it in place).
func (e Event) Move() bool {
	switch e.Kind {
	case EvVacate, EvExchange, EvReturnAll, EvReintegrate, EvConvert, EvNewHome:
		return true
	}
	return false
}

// String renders the event as one log line.
func (e Event) String() string {
	s := fmt.Sprintf("%v %-14s", e.At, e.Kind)
	if e.VM != 0 {
		s += fmt.Sprintf(" vm=%04d", e.VM)
	}
	if e.From != e.Host {
		s += fmt.Sprintf(" host=%d->%d", e.From, e.Host)
	} else {
		s += fmt.Sprintf(" host=%d", e.Host)
	}
	switch {
	case !e.Move():
	case e.Partial:
		s += " partial"
	default:
		s += " full"
	}
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// Event kinds recorded by the manager.
const (
	// VM moves, each naming why the VM moved.
	EvVacate      = "vacate"      // left a home being vacated: partial if idle, else full
	EvExchange    = "exchange"    // an idle full VM went home in full, then back partial
	EvReturnAll   = "return-all"  // a full VM went home in full when its home woke to take all back
	EvReintegrate = "reintegrate" // a partial VM pushed its dirty state home, likewise
	EvConvert     = "convert"     // a partial VM became full where it runs
	EvNewHome     = "new-home"    // an activating partial VM moved in full to another host

	// Host power changes.
	EvSuspend = "suspend" // a host began its S3 transition
	EvWake    = "wake"    // a host was sent a wake-on-LAN

	// Annotations: what set off the actions after them.
	EvExhaust       = "exhaust"        // a consolidation host ran out of room
	EvMemServerFail = "memserver-fail" // a serving memory server died (Config.MemServerMTBF > 0)
	EvForcePromote  = "force-promote"  // a stranded partial VM is to be promoted home
)

// event logs a host event, or an annotation naming VM id at host.
func (c *Cluster) event(kind string, host int, id pagestore.VMID, note string) {
	if c.Cfg.EventLogSize <= 0 {
		return
	}
	c.record(Event{Kind: kind, VM: id, From: host, Host: host, Note: note})
}

// moved logs v's move from host from to where, and how, it now runs.
func (c *Cluster) moved(kind string, v *vm.VM, from int) {
	if c.Cfg.EventLogSize <= 0 {
		return
	}
	c.record(Event{Kind: kind, VM: v.ID, From: from, Host: v.Host, Partial: v.Partial})
}

// record stamps e and appends it to the bounded log, dropping the oldest
// entries.
func (c *Cluster) record(e Event) {
	e.At, e.Seq = c.Sim.Now(), c.logged
	c.logged++
	c.events = append(c.events, e)
	if over := len(c.events) - c.Cfg.EventLogSize; over > 0 {
		c.events = append(c.events[:0], c.events[over:]...)
	}
}

// Events returns a copy of the recorded decision log (oldest first).
func (c *Cluster) Events() []Event {
	out := make([]Event, len(c.events))
	copy(out, c.events)
	return out
}
