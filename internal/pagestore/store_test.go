package pagestore

import (
	"fmt"
	"sync"
	"testing"

	"oasis/internal/units"
)

// TestStoreIDsSorted pins the IDs contract: ascending order regardless of
// which shard each VM hashes to.
func TestStoreIDsSorted(t *testing.T) {
	s := NewStore()
	ids := []VMID{907, 3, 512, 44, 1000, 77, 5}
	for _, id := range ids {
		if _, err := s.Create(id, units.MiB); err != nil {
			t.Fatal(err)
		}
	}
	got := s.IDs()
	if len(got) != len(ids) {
		t.Fatalf("IDs returned %d entries, want %d", len(got), len(ids))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("IDs not sorted: %v", got)
		}
	}
}

// TestStoreShardSpread checks the VMID hash actually spreads the small
// sequential IDs the sim hands out over multiple shards — the point of
// sharding. A degenerate hash would concentrate them and silently
// reintroduce the single-lock convoy.
func TestStoreShardSpread(t *testing.T) {
	s := NewStore()
	used := make(map[*storeShard]bool)
	for id := VMID(0); id < 64; id++ {
		used[s.shard(id)] = true
	}
	if len(used) < storeShards/2 {
		t.Fatalf("64 sequential VMIDs landed on only %d/%d shards", len(used), storeShards)
	}
}

// TestStoreConcurrent hammers every method from many goroutines; run under
// -race this proves the sharded locking covers the full API surface.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	const workers = 32
	const vmsPerWorker = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := VMID(w * vmsPerWorker)
			for i := 0; i < vmsPerWorker; i++ {
				id := base + VMID(i)
				im, err := s.Create(id, units.MiB)
				if err != nil {
					t.Errorf("create %d: %v", id, err)
					return
				}
				if err := im.Write(0, []byte{byte(id)}); err != nil {
					t.Errorf("write %d: %v", id, err)
					return
				}
				if _, err := s.Get(id); err != nil {
					t.Errorf("get %d: %v", id, err)
					return
				}
				// Interleave cross-shard reads with the writes above.
				s.Len()
			}
			for i := 0; i < vmsPerWorker; i += 2 {
				s.Delete(base + VMID(i))
			}
		}(w)
	}
	wg.Wait()
	want := workers * vmsPerWorker / 2
	if s.Len() != want {
		t.Fatalf("Len = %d after concurrent churn, want %d", s.Len(), want)
	}
	for _, id := range s.IDs() {
		im, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		page, err := im.Read(0)
		if err != nil {
			t.Fatal(err)
		}
		if page[0] != byte(id) {
			t.Fatalf("vm %d: page survived churn with wrong contents", id)
		}
	}
	if testing.Verbose() {
		fmt.Println("store after churn:", s.Len(), "VMs")
	}
}
