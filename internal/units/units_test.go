package units

import (
	"testing"
	"time"
)

func TestPages(t *testing.T) {
	cases := []struct {
		in   Bytes
		want int64
	}{
		{0, 0}, {-5, 0}, {1, 1}, {PageSize, 1}, {PageSize + 1, 2}, {4 * GiB, 1 << 20},
	}
	for _, c := range cases {
		if got := c.in.Pages(); got != c.want {
			t.Errorf("(%d).Pages() = %d, want %d", c.in, got, c.want)
		}
	}
	if PagesBytes(3) != 3*PageSize {
		t.Error("PagesBytes broken")
	}
}

func TestString(t *testing.T) {
	cases := map[Bytes]string{
		512:        "512 B",
		2 * KiB:    "2.0 KiB",
		165 * MiB:  "165.0 MiB",
		4 * GiB:    "4.0 GiB",
		2 * TiB:    "2.0 TiB",
		-512 * MiB: "-512.0 MiB",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("(%d).String() = %q, want %q", in, got, want)
		}
	}
}

func TestConversions(t *testing.T) {
	if (512 * MiB).GiBf() != 0.5 {
		t.Error("GiBf broken")
	}
	if SASWrite.MiBps() != 128 {
		t.Errorf("SASWrite = %v MiB/s", SASWrite.MiBps())
	}
}

func TestTransferTime(t *testing.T) {
	// 128 MiB at 128 MiB/s is one second.
	if got := TransferTime(128*MiB, SASWrite); got != time.Second {
		t.Errorf("TransferTime = %v, want 1s", got)
	}
	if TransferTime(GiB, 0) != 0 {
		t.Error("zero bandwidth must yield zero time")
	}
	if TransferTime(-1, SASWrite) != 0 {
		t.Error("negative size must yield zero time")
	}
	// 4 GiB over GigE is ~34.4 s.
	got := TransferTime(4*GiB, GigE).Seconds()
	if got < 34 || got > 35 {
		t.Errorf("4 GiB over GigE = %.1fs", got)
	}
}

func TestFromMiB(t *testing.T) {
	if FromMiB(1) != MiB {
		t.Errorf("FromMiB(1) = %d", FromMiB(1))
	}
	f := 175.3
	got := FromMiB(f)
	want := Bytes(f * float64(MiB))
	if got < want-1 || got > want+1 {
		t.Errorf("FromMiB(175.3) = %d", got)
	}
	if FromMiB(0) != 0 {
		t.Error("FromMiB(0) != 0")
	}
}
