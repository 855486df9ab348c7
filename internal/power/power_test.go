package power

import (
	"math"
	"testing"
	"time"

	"oasis/internal/simtime"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestProfileTable1(t *testing.T) {
	p := DefaultProfile()
	// Under the paper's flat hosting model a powered host draws the
	// Table 1 "20 VMs" rate regardless of active count.
	if !almostEqual(p.HostPower(Powered, 0), 137.9, 1e-9) {
		t.Errorf("flat powered = %v", p.HostPower(Powered, 0))
	}
	if !almostEqual(p.HostPower(Powered, 20), 137.9, 1e-9) {
		t.Errorf("20-VM power = %v", p.HostPower(Powered, 20))
	}
	lin := LinearProfile()
	if !almostEqual(lin.HostPower(Powered, 0), 102.2, 1e-9) {
		t.Errorf("linear idle power = %v", lin.HostPower(Powered, 0))
	}
	if !almostEqual(lin.HostPower(Powered, 20), 137.9, 1e-9) {
		t.Errorf("linear 20-VM power = %v", lin.HostPower(Powered, 20))
	}
	if !almostEqual(p.HostPower(Sleeping, 0), 12.9, 1e-9) {
		t.Errorf("sleep power = %v", p.HostPower(Sleeping, 0))
	}
	if p.SuspendTime != 3100*time.Millisecond || p.ResumeTime != 2300*time.Millisecond {
		t.Errorf("transition times = %v/%v", p.SuspendTime, p.ResumeTime)
	}
	// Sleeping host + memory server must undercut an idle host (§4.4.1:
	// 55.1 W vs 102.2 W) or consolidation cannot save energy.
	if p.SleepW+p.MemServerW >= p.IdleW {
		t.Errorf("sleep+memserver %v W >= idle %v W", p.SleepW+p.MemServerW, p.IdleW)
	}
}

func TestMeterIntegration(t *testing.T) {
	p := DefaultProfile()
	m := NewMeter(p)
	hour := simtime.Hour
	// 1 hour powered idle.
	m.SetState(hour, Sleeping)
	m.SetMemServer(hour, true)
	// 1 hour asleep with memory server on.
	end := 2 * hour
	hostJ := m.HostJoules(end)
	wantHost := 137.9*3600 + 12.9*3600
	if !almostEqual(hostJ, wantHost, 1) {
		t.Errorf("host joules = %v, want %v", hostJ, wantHost)
	}
	msJ := m.MemServerJoules(end)
	if !almostEqual(msJ, 42.2*3600, 1) {
		t.Errorf("memserver joules = %v, want %v", msJ, 42.2*3600)
	}
	if !almostEqual(m.TotalJoules(end), hostJ+msJ, 1e-6) {
		t.Error("TotalJoules inconsistent")
	}
}

func TestMeterActiveVMs(t *testing.T) {
	p := DefaultProfile()
	m := NewMeter(p)
	m.SetActiveVMs(0, 20)
	j := m.HostJoules(simtime.Hour)
	if !almostEqual(j, 137.9*3600, 1) {
		t.Errorf("joules with 20 VMs = %v", j)
	}
}

func TestMeterTransitions(t *testing.T) {
	p := DefaultProfile()
	m := NewMeter(p)
	t0 := simtime.Time(0)
	m.SetState(t0, Suspending)
	t1 := t0.Add(p.SuspendTime)
	m.SetState(t1, Sleeping)
	j := m.HostJoules(t1)
	want := 138.2 * 3.1
	if !almostEqual(j, want, 0.1) {
		t.Errorf("suspend energy = %v, want %v", j, want)
	}
}

func TestBaseline(t *testing.T) {
	p := DefaultProfile()
	// 30 hosts hosting VMs for a day at the flat rate.
	j := BaselineJoules(p, 30, 24*time.Hour, 0)
	want := 30 * 137.9 * 86400.0
	if !almostEqual(j, want, 1) {
		t.Errorf("baseline = %v, want %v", j, want)
	}
	// Under the linear ablation model, active VMs raise the baseline.
	lin := LinearProfile()
	if BaselineJoules(lin, 30, 24*time.Hour, 5) <= BaselineJoules(lin, 30, 24*time.Hour, 0) {
		t.Error("active VMs did not raise linear baseline")
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		Powered: "powered", Suspending: "suspending",
		Sleeping: "sleeping", Resuming: "resuming", State(99): "unknown",
	} {
		if s.String() != want {
			t.Errorf("State(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}
