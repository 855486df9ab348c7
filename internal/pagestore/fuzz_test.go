package pagestore

import (
	"bytes"
	"testing"

	"oasis/internal/rng"
	"oasis/internal/units"
)

// FuzzDecodeSnapshot feeds arbitrary bytes to the two ways a snapshot
// enters an image — the guest side's decoding ApplySnapshot and the
// store side's validating Stage — which must never panic, must refuse
// exactly the same inputs with the same error, and must read back the
// same pages where they accept.
func FuzzDecodeSnapshot(f *testing.F) {
	im := NewImage(1 * units.MiB)
	if err := im.Write(3, []byte{1, 2, 3}); err != nil {
		f.Fatal(err)
	}
	im.Write(4, fillPage(rng.New(1)))
	good, _, err := EncodeAll(im)
	if err != nil {
		f.Fatal(err)
	}
	withDict, _, _ := EncodeAllDict(im, fillPage(rng.New(1)), 1)
	f.Add(good)
	f.Add(withDict)
	f.Add([]byte("OAPS"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		guest, store := NewImage(1*units.MiB), NewImage(1*units.MiB)
		applyErr := ApplySnapshot(guest, data)
		st, stageErr := store.Stage(bytes.Clone(data))
		if (applyErr == nil) != (stageErr == nil) || (applyErr != nil && applyErr.Error() != stageErr.Error()) {
			t.Fatalf("ApplySnapshot says %v, Stage says %v", applyErr, stageErr)
		}
		if stageErr != nil {
			return
		}
		store.Adopt(st)
		for _, pfn := range append(guest.DirtySince(0), store.DirtySince(0)...) {
			a, _ := guest.Read(pfn)
			b, err := store.Read(pfn)
			if err != nil || !bytes.Equal(a, b) {
				t.Fatalf("pfn %d: the adopted entry reads differently from the applied one: %v", pfn, err)
			}
		}
	})
}

// FuzzDecodePage checks the single-page decoder against arbitrary tokens
// and payloads.
func FuzzDecodePage(f *testing.F) {
	f.Add(uint16(0xFFFF), []byte{})
	f.Add(uint16(5), []byte{1, 2, 3, 4, 5})
	f.Fuzz(func(t *testing.T, token uint16, payload []byte) {
		page, err := DecodePage(token, payload)
		if err == nil && len(page) != int(units.PageSize) {
			t.Fatalf("decoded page of %d bytes", len(page))
		}
	})
}
