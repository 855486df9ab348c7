package telemetry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the fixed registry the exposition golden test
// renders: one of each instrument kind, with and without labels, plus a
// label value that needs escaping.
func goldenRegistry() *Registry {
	r := NewRegistry()
	get := r.Counter("test_requests_total", "Requests handled.", L("op", "get"))
	get.Add(3)
	r.Counter("test_requests_total", "Requests handled.", L("op", "put")).Inc()
	r.Gauge("test_temperature_celsius", "Current temperature.").Set(-4.5)
	h := r.Histogram("test_latency_seconds", "Request latency.",
		[]float64{0.1, 1, 10}, L("path", `mixed "quotes" and \slashes\`))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(120)
	return r
}

func TestExpositionGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s--- want ---\n%s", buf.Bytes(), want)
	}
}

func TestWriteTextPrefixMatchesExposition(t *testing.T) {
	r := goldenRegistry()
	var all, filtered bytes.Buffer
	if err := r.WriteText(&all, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&filtered, "test_requests_"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(all.String(), "# ") {
		t.Error("WriteText must not emit # metadata")
	}
	want := `test_requests_total{op="get"} 3` + "\n" + `test_requests_total{op="put"} 1` + "\n"
	if filtered.String() != want {
		t.Errorf("prefix filter: got %q, want %q", filtered.String(), want)
	}
	// Every WriteText line must appear verbatim in the Prometheus
	// exposition: one renderer behind both, so CLI output cannot drift
	// from what a scrape reports.
	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(all.String(), "\n"), "\n") {
		if !strings.Contains(prom.String(), line+"\n") {
			t.Errorf("WriteText line %q missing from WritePrometheus output", line)
		}
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x", L("k", "v"))
	b := r.Counter("x_total", "x", L("k", "v"))
	if a != b {
		t.Error("same name+labels must return the same counter")
	}
	if c := r.Counter("x_total", "x", L("k", "other")); c == a {
		t.Error("different label value must return a distinct series")
	}
	// Label order must not matter.
	h1 := r.Gauge("y", "y", L("a", "1"), L("b", "2"))
	h2 := r.Gauge("y", "y", L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Error("label order must not create a distinct series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "z")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a gauge must panic")
		}
	}()
	r.Gauge("z_total", "z")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"", "0leading", "has space", "dash-ed", "ütf"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must panic", name)
				}
			}()
			r.Counter(name, "bad")
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid label name must panic")
		}
	}()
	r.Counter("ok_total", "ok", L("bad-key", "v"))
}

func TestCounterDecreasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative counter Add must panic")
		}
	}()
	NewRegistry().Counter("c_total", "c").Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 106 {
		t.Errorf("Sum = %v, want 106", h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`lat_seconds_bucket{le="1"} 2`, // observations on a bound count into it
		`lat_seconds_bucket{le="2"} 3`,
		`lat_seconds_bucket{le="4"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(buf.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	// Second registration shares the first registration's bounds.
	if h2 := r.Histogram("lat_seconds", "lat", []float64{9, 99}); h2 != h {
		t.Error("histogram re-registration must return the existing series")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	for i, want := range []float64{1, 2, 4, 8} {
		if exp[i] != want {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, exp[i], want)
		}
	}
}

// TestRegistryConcurrency hammers one registry from many goroutines —
// concurrent registration of the same and distinct series, updates, and
// renders — and then checks the totals. Run under -race (the CI lint
// job does) this is the registry's thread-safety proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const perG = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Re-register every iteration: registration must be as
				// safe as updating, since instrumented libraries look
				// instruments up in hot paths.
				r.Counter("hammer_total", "h").Inc()
				r.Counter("hammer_labeled_total", "h", L("g", string(rune('a'+g)))).Inc()
				r.Gauge("hammer_gauge", "h").Add(1)
				r.Histogram("hammer_seconds", "h", []float64{1, 10}).Observe(float64(i % 3))
				if i%500 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Errorf("render during hammer: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if got := r.Counter("hammer_total", "h").Value(); got != goroutines*perG {
		t.Errorf("hammer_total = %v, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := r.Counter("hammer_labeled_total", "h", L("g", string(rune('a'+g)))).Value(); got != perG {
			t.Errorf("hammer_labeled_total{g=%c} = %v, want %d", 'a'+g, got, perG)
		}
	}
	if got := r.Gauge("hammer_gauge", "h").Value(); got != goroutines*perG {
		t.Errorf("hammer_gauge = %v, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("hammer_seconds", "h", nil).Count(); got != goroutines*perG {
		t.Errorf("hammer_seconds count = %d, want %d", got, goroutines*perG)
	}
}
