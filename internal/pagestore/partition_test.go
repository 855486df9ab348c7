package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/units"
)

// partitionImage builds a mixed image: zero, compressible, and
// incompressible pages, so partitions carry every entry shape.
func partitionImage(t *testing.T, seed uint64, pages int64) *Image {
	t.Helper()
	im := NewImage(units.Bytes(pages) * units.PageSize)
	r := rng.New(seed)
	page := make([]byte, units.PageSize)
	for pfn := PFN(0); int64(pfn) < pages; pfn++ {
		switch r.Int63n(3) {
		case 0:
			continue // zero page
		case 1:
			for i := range page {
				page[i] = byte(pfn % 7)
			}
		default:
			for i := 0; i < len(page); i += 8 {
				binary.LittleEndian.PutUint64(page[i:], r.Uint64())
			}
		}
		if err := im.Write(pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	return im
}

func TestPartitionSnapshotReassembles(t *testing.T) {
	im := partitionImage(t, 7, 96)
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3
	parts, err := PartitionSnapshot(snap, n, func(pfn PFN) []int {
		return []int{int(pfn) % n}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != n {
		t.Fatalf("got %d partitions, want %d", len(parts), n)
	}
	// Applying the disjoint partitions in any order reproduces the image.
	back := NewImage(im.Alloc())
	for i := n - 1; i >= 0; i-- {
		if err := ApplySnapshot(back, parts[i]); err != nil {
			t.Fatalf("apply part %d: %v", i, err)
		}
	}
	got, _, err := EncodeAll(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, snap) {
		t.Fatal("reassembled image diverges from the source snapshot")
	}
}

func TestPartitionSnapshotReplicates(t *testing.T) {
	im := partitionImage(t, 11, 64)
	snap, pages, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	// Every page to every owner: each partition must equal the original.
	const n = 2
	parts, err := PartitionSnapshot(snap, n, func(PFN) []int { return []int{0, 1} })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range parts {
		if !bytes.Equal(p, snap) {
			t.Fatalf("replica partition %d diverges from the source snapshot", i)
		}
	}
	if pages == 0 {
		t.Fatal("test image encoded no pages")
	}
}

func TestPartitionSnapshotEmptyParts(t *testing.T) {
	im := partitionImage(t, 13, 32)
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	// All pages to owner 0; owner 1 must still get a valid empty snapshot.
	parts, err := PartitionSnapshot(snap, 2, func(PFN) []int { return []int{0} })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parts[0], snap) {
		t.Fatal("sole owner's partition diverges from the source")
	}
	if len(parts[1]) != 8 || string(parts[1][:4]) != snapMagic {
		t.Fatalf("empty partition is not a bare snapshot header: %d bytes", len(parts[1]))
	}
	if err := ApplySnapshot(NewImage(im.Alloc()), parts[1]); err != nil {
		t.Fatalf("empty partition does not apply: %v", err)
	}
}

func TestPartitionSnapshotRejectsBadInput(t *testing.T) {
	im := partitionImage(t, 17, 16)
	snap, _, err := EncodeAll(im)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionSnapshot(snap, 0, func(PFN) []int { return nil }); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := PartitionSnapshot([]byte("nope"), 1, func(PFN) []int { return nil }); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := PartitionSnapshot(snap[:len(snap)-1], 1, func(PFN) []int { return []int{0} }); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := PartitionSnapshot(snap, 2, func(PFN) []int { return []int{2} }); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
}

// partitionPerPage is PartitionSnapshot as it was before it cut by run:
// owners asked per page, every entry appended to every owner's part,
// the header count patched at the end. Kept as the oracle the run-cut
// version is held to, byte for byte.
func partitionPerPage(data []byte, n int, owners func(PFN) []int) ([][]byte, error) {
	if n <= 0 {
		return nil, fmt.Errorf("pagestore: partition into %d parts", n)
	}
	parts := make([][]byte, n)
	counts := make([]uint32, n)
	for i := range parts {
		p := append(make([]byte, 0, 8+len(data)/n), snapMagic...)
		parts[i] = binary.BigEndian.AppendUint32(p, 0) // count patched below
	}
	if err := walkSnapshot(data, func(pfn PFN, entry []byte) error {
		for _, o := range owners(pfn) {
			if o < 0 || o >= n {
				return fmt.Errorf("pagestore: page %d assigned to owner %d of %d", pfn, o, n)
			}
			parts[o] = append(parts[o], entry...)
			counts[o]++
		}
		return nil
	}); err != nil {
		return nil, err
	}
	for i := range parts {
		binary.BigEndian.PutUint32(parts[i][4:8], counts[i])
	}
	return parts, nil
}

// randomSnapshot frames pages entries of every shape a snapshot can
// carry: zero, lzf-compressed, a whole raw page and a raw entry shorter
// than a page, at ascending pfns with gaps.
func randomSnapshot(r *rng.Rand, pages int) []byte {
	snap := binary.BigEndian.AppendUint32([]byte(snapMagic), uint32(pages))
	page := make([]byte, units.PageSize)
	pfn := PFN(r.Int63n(512))
	for i := 0; i < pages; i++ {
		pfn += PFN(1 + r.Int63n(3))
		snap = binary.BigEndian.AppendUint64(snap, uint64(pfn))
		switch r.Intn(4) {
		case 0:
			snap = binary.BigEndian.AppendUint16(snap, tokenZero)
		case 1:
			for j := range page {
				page[j] = byte(j / (1 + r.Intn(64)))
			}
			snap = EncodePageAppend(snap, page)
		case 2:
			for j := 0; j < len(page); j += 8 {
				binary.LittleEndian.PutUint64(page[j:], r.Uint64())
			}
			snap = EncodePageAppend(snap, page)
		default:
			short := 1 + r.Intn(int(units.PageSize)-1)
			snap = binary.BigEndian.AppendUint16(snap, uint16(tokenRawBit|short))
			for j := 0; j < short; j++ {
				snap = append(snap, byte(r.Uint64()))
			}
		}
	}
	return snap
}

// TestPartitionSnapshotMatchesPerPageOracle holds the run-cut partition
// to the per-page oracle over random snapshots and every shape of owner
// function: parts equal byte for byte, errors equal word for word.
func TestPartitionSnapshotMatchesPerPageOracle(t *testing.T) {
	const rangePages = 16
	owners := map[string]func(r *rng.Rand, n int) func(PFN) []int{
		// One fixed set per range, shared between calls: what the fabric
		// client hands over.
		"per-range": func(r *rng.Rand, n int) func(PFN) []int {
			sets := map[PFN][]int{}
			return func(pfn PFN) []int {
				k := pfn / rangePages
				if _, ok := sets[k]; !ok {
					sets[k] = []int{r.Intn(n), r.Intn(n)}
				}
				return sets[k]
			}
		},
		"alternating": func(_ *rng.Rand, n int) func(PFN) []int {
			return func(pfn PFN) []int { return []int{int(pfn) % n} }
		},
		// A fresh slice per call with runs of equal contents: runs must
		// merge by value, not by identity.
		"fresh-per-call": func(_ *rng.Rand, n int) func(PFN) []int {
			return func(pfn PFN) []int {
				k := int(pfn / rangePages)
				return []int{k % n, (k + 1) % n}
			}
		},
		// One buffer rewritten per call: the partition must not keep it.
		"reused-buffer": func(_ *rng.Rand, n int) func(PFN) []int {
			buf := make([]int, 2)
			return func(pfn PFN) []int {
				buf[0], buf[1] = int(pfn/rangePages)%n, int(pfn/(2*rangePages))%n
				return buf
			}
		},
		"duplicates": func(_ *rng.Rand, n int) func(PFN) []int {
			return func(pfn PFN) []int {
				o := int(pfn/rangePages) % n
				return []int{o, o}
			}
		},
		"empty-set": func(_ *rng.Rand, n int) func(PFN) []int {
			return func(pfn PFN) []int {
				if pfn/rangePages%3 == 0 {
					return nil
				}
				return []int{int(pfn) % n}
			}
		},
		"out-of-range": func(r *rng.Rand, n int) func(PFN) []int {
			bad := PFN(r.Int63n(600))
			return func(pfn PFN) []int {
				if pfn >= bad {
					return []int{0, n}
				}
				return []int{int(pfn/rangePages) % n}
			}
		},
	}
	empty := 0
	for name, mk := range owners {
		t.Run(name, func(t *testing.T) {
			refused := 0
			for seed := uint64(1); seed <= 25; seed++ {
				r := rng.New(seed)
				n := 1 + r.Intn(4)
				snap := randomSnapshot(r, r.Intn(200))
				want, wantErr := partitionPerPage(snap, n, mk(rng.New(seed), n))
				got, gotErr := PartitionSnapshot(snap, n, mk(rng.New(seed), n))
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("seed %d: error %v, oracle %v", seed, gotErr, wantErr)
				}
				if gotErr != nil {
					refused++
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d: %d parts, oracle %d", seed, len(got), len(want))
				}
				for i := range want {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("seed %d: part %d of %d (%d bytes) differs from the oracle's (%d bytes)",
							seed, i, n, len(got[i]), len(want[i]))
					}
					if err := ApplySnapshot(NewImage(4*units.MiB), got[i]); err != nil {
						t.Fatalf("seed %d: part %d does not apply: %v", seed, i, err)
					}
					if len(got[i]) == 8 {
						empty++
					}
				}
			}
			if name == "out-of-range" && refused == 0 {
				t.Fatal("no seed reached an out-of-range owner")
			}
		})
	}
	if empty == 0 {
		t.Fatal("no seed produced an empty part")
	}
}

// BenchmarkPartitionSnapshot cuts a 32 MiB mixed image's snapshot into
// 3 parts at R = 2, one owner set per 4 MiB range, by run and by the
// per-page oracle. "fresh" owners allocate their set per call, as
// Ring.Owners does; "shared" ones hand out a kept set, as the fabric
// client does.
func BenchmarkPartitionSnapshot(b *testing.B) {
	im := partitionImage(&testing.T{}, 19, 8192)
	snap, _, err := EncodeAll(im)
	if err != nil {
		b.Fatal(err)
	}
	sets := [][]int{{0, 1}, {1, 2}, {2, 0}}
	owners := map[string]func(PFN) []int{
		"shared": func(pfn PFN) []int { return sets[pfn/1024%3] },
		"fresh":  func(pfn PFN) []int { return slices.Clone(sets[pfn/1024%3]) },
	}
	cuts := map[string]func([]byte, int, func(PFN) []int) ([][]byte, error){
		"runs":     PartitionSnapshot,
		"per-page": partitionPerPage,
	}
	for _, cut := range []string{"runs", "per-page"} {
		for _, set := range []string{"shared", "fresh"} {
			b.Run(cut+"/"+set, func(b *testing.B) {
				b.SetBytes(int64(len(snap)))
				b.ReportAllocs()
				for range b.N {
					if _, err := cuts[cut](snap, 3, owners[set]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
