package memserver

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"oasis/internal/pagestore"
)

// Persistence: the prototype's memory server serves images from a shared
// SAS drive, so they survive daemon restarts. SetPersistDir gives the Go
// daemon the same property: every image install/update is mirrored to a
// per-VM image file (pagestore.WriteImageFile), and LoadPersisted
// restores the directory's images at startup.

// SetPersistDir enables mirroring of VM images to dir (created if
// needed). Call before serving traffic.
func (s *Server) SetPersistDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("memserver: persist dir: %w", err)
	}
	s.persistDir = dir
	return nil
}

// imagePath returns the on-disk path for a VM's image.
func (s *Server) imagePath(id pagestore.VMID) string {
	return filepath.Join(s.persistDir, fmt.Sprintf("%04d.img", id))
}

// persist mirrors a VM's current image to disk, if enabled: the file is
// written and synced under a temporary name, renamed into place, and the
// directory synced, so an acknowledged upload survives power loss.
func (s *Server) persist(id pagestore.VMID) error {
	if s.persistDir == "" {
		return nil
	}
	im, err := s.store.Get(id)
	if err != nil {
		return err
	}
	tmp := s.imagePath(id) + ".tmp"
	if _, err := pagestore.WriteImageFile(tmp, im); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.imagePath(id)); err != nil {
		return err
	}
	dir, err := os.Open(s.persistDir)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// unpersist removes a VM's on-disk image, if enabled.
func (s *Server) unpersist(id pagestore.VMID) {
	if s.persistDir == "" {
		return
	}
	os.Remove(s.imagePath(id))
}

// LoadPersisted restores every image found in the persist directory into
// the store, returning how many VMs were loaded. Call after
// SetPersistDir, before serving traffic.
func (s *Server) LoadPersisted() (int, error) {
	if s.persistDir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(s.persistDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".img") {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "%d.img", &id); err != nil {
			continue
		}
		im, err := pagestore.LoadImageFile(filepath.Join(s.persistDir, name))
		if err != nil {
			return n, fmt.Errorf("memserver: load %s: %w", name, err)
		}
		s.store.Put(pagestore.VMID(id), im)
		n++
	}
	s.noteStore()
	return n, nil
}
