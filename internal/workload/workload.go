// Package workload models how VMs use memory when idle and when users
// return: the idle working-set distribution, the page-request processes of
// idle desktop/web/database VMs (Figures 1 and 2), and the
// application-start fault counts behind Figure 6.
//
// The paper does not publish raw traces of these processes, only their
// aggregate rates; the generators here are calibrated so the published
// aggregates fall out (see calibration.go).
package workload

import (
	"time"

	"oasis/internal/rng"
	"oasis/internal/units"
	"oasis/internal/vm"
)

// wsSampleMeanMiB is the pre-truncation mean that makes the truncated
// normal's mean land on the paper's 165.63 MiB: cutting the left tail at
// 16 MiB shifts the mean up by ~12.7 MiB, so we sample around 153 and let
// the truncation push it back to the published value.
const wsSampleMeanMiB = 153.0

// SampleWorkingSet draws an idle working set from the distribution
// measured by Jettison and reused in §5.1: mean 165.63 MiB, std 91.38 MiB
// for 4 GiB desktop VMs, truncated to [16 MiB, 1 GiB].
func SampleWorkingSet(r *rng.Rand) units.Bytes {
	mib := r.TruncNorm(wsSampleMeanMiB, WSStdMiB, WSMinMiB, WSMaxMiB)
	return units.Bytes(mib * float64(units.MiB))
}

// SampleWorkingSetFor scales the desktop distribution by class: idle web
// and database servers touch roughly a fifth of what desktops do
// (Figure 1: 37.6 and 30.6 vs. 188.2 MiB over an hour).
func SampleWorkingSetFor(r *rng.Rand, class vm.Class) units.Bytes {
	ws := SampleWorkingSet(r)
	switch class {
	case vm.WebServer:
		ws = ws / 5
	case vm.DBServer:
		ws = ws / 6
	}
	if ws < 16*units.MiB {
		ws = 16 * units.MiB
	}
	return ws
}

// AccessProcess generates the page-request bursts of one idle VM. Idle
// VMs touch memory in bursts (a mail poll, a cron tick, a heartbeat);
// the gap between bursts is what gives a home host its sleep
// opportunities (Figure 2).
type AccessProcess struct {
	r         *rng.Rand
	meanGap   float64 // seconds
	meanPages float64
}

// NewAccessProcess creates the access process for a VM of the given
// class, using its own random substream.
func NewAccessProcess(class vm.Class, r *rng.Rand) *AccessProcess {
	gap, pages := classParams(class)
	return &AccessProcess{r: r, meanGap: gap, meanPages: pages}
}

func classParams(class vm.Class) (meanGapSec, meanPages float64) {
	switch class {
	case vm.WebServer:
		return WebMeanGapSec, WebMeanBurstPages
	case vm.DBServer:
		return DBMeanGapSec, DBMeanBurstPages
	default:
		return DesktopMeanGapSec, DesktopMeanBurstPages
	}
}

// NextBurst returns the gap until the next burst of page requests and the
// number of pages it touches (always at least one).
func (p *AccessProcess) NextBurst() (gap time.Duration, pages int) {
	g := p.r.Exp(p.meanGap)
	n := int(p.r.Exp(p.meanPages)) + 1
	return time.Duration(g * float64(time.Second)), n
}

// CumulativePoint is one sample of a cumulative-access curve.
type CumulativePoint struct {
	At  time.Duration
	MiB float64
}

// CumulativeAccess simulates an idle VM of the given class for dur and
// returns its cumulative memory-access curve sampled at every burst —
// the data behind Figure 1.
func CumulativeAccess(class vm.Class, dur time.Duration, r *rng.Rand) []CumulativePoint {
	p := NewAccessProcess(class, r)
	var out []CumulativePoint
	var t time.Duration
	var mib float64
	out = append(out, CumulativePoint{0, 0})
	for {
		gap, pages := p.NextBurst()
		t += gap
		if t > dur {
			break
		}
		mib += float64(pages) * float64(units.PageSize) / float64(units.MiB)
		out = append(out, CumulativePoint{t, mib})
	}
	out = append(out, CumulativePoint{dur, mib})
	return out
}

// InterArrivals superposes the burst processes of several idle VMs over
// dur and returns the gaps between consecutive aggregate page-request
// bursts, in seconds — the measurement behind Figure 2. The result is
// what a home host sees when its consolidated VMs all fetch on demand.
func InterArrivals(classes []vm.Class, dur time.Duration, r *rng.Rand) []float64 {
	type src struct {
		p    *AccessProcess
		next time.Duration
	}
	srcs := make([]src, len(classes))
	for i, c := range classes {
		p := NewAccessProcess(c, r.Fork())
		gap, _ := p.NextBurst()
		srcs[i] = src{p: p, next: gap}
	}
	var gaps []float64
	var last time.Duration = -1
	for {
		// Find the earliest next burst.
		best := -1
		for i := range srcs {
			if best == -1 || srcs[i].next < srcs[best].next {
				best = i
			}
		}
		if best == -1 || srcs[best].next > dur {
			break
		}
		t := srcs[best].next
		if last >= 0 {
			gaps = append(gaps, (t - last).Seconds())
		}
		last = t
		gap, _ := srcs[best].p.NextBurst()
		srcs[best].next = t + gap
	}
	return gaps
}
