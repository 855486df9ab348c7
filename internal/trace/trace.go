// Package trace provides user activity traces: the data that drives the
// §5 evaluation. The paper used keyboard/mouse traces from 22 researchers
// over four months (2086 user-days), divided into 5-minute intervals
// marked active or idle. Those traces are not public, so this package
// pairs a simple interchange format with a synthetic generator calibrated
// to the aggregate statistics the paper reports:
//
//   - diurnal weekday pattern peaking around 2 pm and bottoming ~6:30 am;
//   - never more than ~46% of users simultaneously active on weekdays;
//   - all 30 VMs of a home host simultaneously idle only ~13% of the time;
//   - markedly lower weekend activity.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"oasis/internal/rng"
)

// Interval granularity: the trace marks each 5-minute interval of a day
// active or idle (§5.1).
const (
	IntervalMinutes = 5
	IntervalsPerDay = 24 * 60 / IntervalMinutes // 288
)

// DayKind distinguishes weekday from weekend user-days.
type DayKind int

// Day kinds.
const (
	Weekday DayKind = iota
	Weekend
)

// String renders the kind.
func (k DayKind) String() string {
	if k == Weekend {
		return "weekend"
	}
	return "weekday"
}

// UserDay is one user's activity for one day.
type UserDay struct {
	Kind   DayKind
	Active [IntervalsPerDay]bool
}

// ActiveIntervals counts the active intervals in the day.
func (d *UserDay) ActiveIntervals() int {
	n := 0
	for _, a := range d.Active {
		if a {
			n++
		}
	}
	return n
}

// Set is a collection of user-days, typically the 900 samples one
// simulation run uses.
type Set struct {
	Days []UserDay
}

// ActiveCount returns, for each interval, how many users are active — the
// "number of active VMs" curve of Figure 7.
func (s *Set) ActiveCount() [IntervalsPerDay]int {
	var out [IntervalsPerDay]int
	for i := range s.Days {
		for j, a := range s.Days[i].Active {
			if a {
				out[j]++
			}
		}
	}
	return out
}

// PeakActive returns the maximum simultaneous active users and the
// interval at which it occurs.
func (s *Set) PeakActive() (peak, interval int) {
	counts := s.ActiveCount()
	for i, c := range counts {
		if c > peak {
			peak, interval = c, i
		}
	}
	return peak, interval
}

// FracAllIdle partitions the users into groups of groupSize (the VMs of
// one home host) and returns the fraction of (group, interval) pairs in
// which every user of the group is idle — the paper's "all of the VMs
// assigned to a home host are simultaneously idle only 13% of the time".
func (s *Set) FracAllIdle(groupSize int) float64 {
	if groupSize <= 0 || len(s.Days) == 0 {
		return 0
	}
	groups := len(s.Days) / groupSize
	if groups == 0 {
		return 0
	}
	allIdle, total := 0, 0
	for g := 0; g < groups; g++ {
		for j := 0; j < IntervalsPerDay; j++ {
			idle := true
			for u := g * groupSize; u < (g+1)*groupSize; u++ {
				if s.Days[u].Active[j] {
					idle = false
					break
				}
			}
			total++
			if idle {
				allIdle++
			}
		}
	}
	return float64(allIdle) / float64(total)
}

// Write serialises the set: a header line, then one line per user-day of
// the form "W 0101...." (288 digits).
func (s *Set) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# oasis-trace v1 days=%d\n", len(s.Days)); err != nil {
		return err
	}
	var line strings.Builder
	for i := range s.Days {
		d := &s.Days[i]
		line.Reset()
		if d.Kind == Weekend {
			line.WriteString("E ")
		} else {
			line.WriteString("W ")
		}
		for _, a := range d.Active {
			if a {
				line.WriteByte('1')
			} else {
				line.WriteByte('0')
			}
		}
		line.WriteByte('\n')
		if _, err := bw.WriteString(line.String()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a serialised set.
func Read(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	set := &Set{}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(line) != 2+IntervalsPerDay || (line[0] != 'W' && line[0] != 'E') || line[1] != ' ' {
			return nil, fmt.Errorf("trace: line %d: malformed user-day", lineNo)
		}
		var d UserDay
		if line[0] == 'E' {
			d.Kind = Weekend
		}
		for i := 0; i < IntervalsPerDay; i++ {
			switch line[2+i] {
			case '1':
				d.Active[i] = true
			case '0':
			default:
				return nil, fmt.Errorf("trace: line %d: bad activity digit %q", lineNo, line[2+i])
			}
		}
		set.Days = append(set.Days, d)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return set, nil
}

// Sample draws n user-days with replacement from pool, the way each
// simulation run samples 900 user weekdays from the corpus and aligns
// them into one day (§5.1).
func Sample(pool []UserDay, n int, r *rng.Rand) *Set {
	out := &Set{Days: make([]UserDay, n)}
	for i := 0; i < n; i++ {
		out.Days[i] = pool[r.Intn(len(pool))]
	}
	return out
}
