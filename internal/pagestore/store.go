package pagestore

import (
	"fmt"
	"sort"
	"sync"

	"oasis/internal/units"
)

// storeShards is the number of independently locked shards a Store
// spreads its VMs over. A power of two keeps the index computation a
// mask; 16 shards is comfortably above the concurrency of one memory
// server's accept loop, so concurrent page requests for different VMs
// never convoy on a single lock.
const storeShards = 16

// Store is a set of VM images keyed by VMID — the state a memory server
// holds on its shared drive for the partial VMs of its host. Store is safe
// for concurrent use; the map is sharded by VMID so that lookups for
// different VMs (the server's common case: one connection per memtap, each
// serving a different guest) proceed without contending on one RWMutex.
// Pages within an Image carry their own lock.
type Store struct {
	shards [storeShards]storeShard
}

type storeShard struct {
	mu     sync.RWMutex
	images map[VMID]*Image
}

// NewStore returns an empty store.
func NewStore() *Store {
	s := &Store{}
	for i := range s.shards {
		s.shards[i].images = make(map[VMID]*Image)
	}
	return s
}

// shard maps a VMID to its shard. Fibonacci hashing spreads the
// small sequential IDs tests and the sim hand out; the multiplier is
// 2^32/phi.
func (s *Store) shard(id VMID) *storeShard {
	return &s.shards[(uint32(id)*0x9E3779B1)>>28&(storeShards-1)]
}

// Create adds an empty image for a VM. It fails if the VM already exists.
func (s *Store) Create(id VMID, alloc units.Bytes) (*Image, error) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.images[id]; ok {
		return nil, fmt.Errorf("pagestore: vm %04d already exists", id)
	}
	im := NewImage(alloc)
	sh.images[id] = im
	return im, nil
}

// UnknownVMText is the phrase Get's error carries for a VM the store does
// not hold. The memory server relays the error as text over the wire, so
// clients recognise the condition by this phrase (memserver.IsUnknownVM).
const UnknownVMText = "unknown vm"

// Get returns the image for a VM, or an error if unknown.
func (s *Store) Get(id VMID) (*Image, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	im, ok := sh.images[id]
	if !ok {
		return nil, fmt.Errorf("pagestore: %s %04d", UnknownVMText, id)
	}
	return im, nil
}

// Put installs (or replaces) an image for a VM.
func (s *Store) Put(id VMID, im *Image) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.images[id] = im
}

// Delete removes a VM's image, releasing its memory. Deleting an unknown
// VM is a no-op: the caller is expressing "make sure it is gone".
func (s *Store) Delete(id VMID) {
	sh := s.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.images, id)
}

// each calls fn for every image, shard by shard under the shard's lock.
func (s *Store) each(fn func(id VMID, im *Image)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id, im := range sh.images {
			fn(id, im)
		}
		sh.mu.RUnlock()
	}
}

// IDs returns the VMIDs present in the store, sorted ascending.
func (s *Store) IDs() []VMID {
	var out []VMID
	s.each(func(id VMID, _ *Image) { out = append(out, id) })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// WireBytes sums Image.WireBytes over the store.
func (s *Store) WireBytes() (live, held int64) {
	s.each(func(_ VMID, im *Image) {
		l, h := im.WireBytes()
		live, held = live+l, held+h
	})
	return live, held
}

// Len returns the number of images held.
func (s *Store) Len() (n int) {
	s.each(func(VMID, *Image) { n++ })
	return n
}
