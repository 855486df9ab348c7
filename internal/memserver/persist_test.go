package memserver

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"oasis/internal/pagestore"
	"oasis/internal/telemetry"
	"oasis/internal/units"
)

// parentImagePage is testdata/gen_parent_image.go's page generator: the
// i-th page of the image testdata/parent_0042.img holds.
func parentImagePage(i int) []byte {
	r := rand.New(rand.NewSource(int64(1000 + i)))
	p := make([]byte, units.PageSize)
	switch i % 3 {
	case 0:
		for j := range p {
			p[j] = "memory server page "[(j+i)%19]
		}
		p[r.Intn(len(p))] = byte(i)
	case 1:
		r.Read(p)
	default:
		for j := 0; j < 24; j++ {
			r.Read(p[r.Intn(len(p)-8):][:8])
		}
	}
	return p
}

// TestLoadPersistedParentImage: a persist directory written by the
// daemon of commit bf03f4b (index-and-payloads layout, the magic it
// shared with dictionary snapshots) still restores, page for page; the
// next put rewrites the file in today's layout, which restores the same
// and is written from the stored entries as they are.
func TestLoadPersistedParentImage(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "parent_0042.img"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "0042.img")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	restore := func() *pagestore.Image {
		t.Helper()
		s := NewServer(testSecret, t.Logf)
		s.SetMetricsRegistry(telemetry.NewRegistry())
		if err := s.SetPersistDir(dir); err != nil {
			t.Fatal(err)
		}
		if n, err := s.LoadPersisted(); err != nil || n != 1 {
			t.Fatalf("LoadPersisted = %d, %v; want the one image", n, err)
		}
		im, err := s.Store().Get(42)
		if err != nil {
			t.Fatal(err)
		}
		if im.Alloc() != 8*units.MiB || im.TouchedPages() != 24 {
			t.Fatalf("restored %v image with %d pages, want 8 MiB with 24", im.Alloc(), im.TouchedPages())
		}
		for i := 0; i < 24; i++ {
			if got, _ := im.Read(pagestore.PFN(5 + i*83)); !bytes.Equal(got, parentImagePage(i)) {
				t.Fatalf("page %d of the parent's image file restored wrong", 5+i*83)
			}
		}
		if got, _ := im.Read(6); !pagestore.IsZeroPage(got) {
			t.Fatal("untouched page not zero")
		}
		// Restored entries are adopted, not decoded: compressible and raw
		// pages alike are held in wire form.
		if live, held := im.WireBytes(); live == 0 || held < live {
			t.Fatalf("restored image references %d wire bytes of %d held", live, held)
		}
		// Rewrite the file from the restored image.
		if err := s.ApplyDiff(42, frameSnap()); err != nil {
			t.Fatal(err)
		}
		return im
	}
	restore()
	now, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(now), "OAIF") || bytes.Equal(now, old) {
		t.Fatalf("image file not rewritten in the current layout (magic %q)", now[:4])
	}
	im := restore() // the same checks, from the rewritten file
	// No compress at persist: the file is the alloc and the stored
	// entries behind a snapshot header.
	pfns := im.AllTouched()
	want, err := im.AppendEntries(nil, pfns)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(now[20:], want) {
		t.Fatal("image file body is not the stored entries verbatim")
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmp) != 0 {
		t.Fatalf("temporary files left behind: %v", tmp)
	}
}

// TestStoreSeriesExposition pins the store instruments' names, kinds and
// help text as a scrape shows them.
func TestStoreSeriesExposition(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewServer(testSecret, nil)
	s.SetMetricsRegistry(reg)
	_, snap := makeSnapshot(t, 1*units.MiB, 4, 8)
	if err := s.InstallImage(1, 1*units.MiB, snap); err != nil {
		t.Fatal(err)
	}
	im, _ := s.Store().Get(1)
	live, held := im.WireBytes()
	if held != int64(len(snap)) || live != held-8-8*8 {
		t.Fatalf("%d live / %d held for a %d-byte snapshot of 8 pages", live, held, len(snap))
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.NewReplacer("LIVE", strconv.FormatInt(live, 10), "HELD", strconv.FormatInt(held, 10)).Replace(`# HELP oasis_memserver_store_compactions_total Times an image copied its live entries together to drop overwritten ones.
# TYPE oasis_memserver_store_compactions_total counter
oasis_memserver_store_compactions_total 0
# HELP oasis_memserver_store_held_bytes Bytes of the upload buffers those entries lie in, overwritten entries included.
# TYPE oasis_memserver_store_held_bytes gauge
oasis_memserver_store_held_bytes HELD
# HELP oasis_memserver_store_live_bytes Bytes of page entries the stored images serve as they arrived.
# TYPE oasis_memserver_store_live_bytes gauge
oasis_memserver_store_live_bytes LIVE
`)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("store series missing from the exposition; want\n%s\ngot\n%s", want, buf.String())
	}
}
