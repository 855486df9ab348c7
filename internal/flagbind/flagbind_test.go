package flagbind

import (
	"flag"
	"reflect"
	"testing"
)

func TestBindTransportParsesAll(t *testing.T) {
	var tr Transport
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindTransport(fs, &tr)
	err := fs.Parse([]string{
		"-pool", "4",
		"-prefetch-streams", "3",
		"-upload-streams", "2",
		"-backends", "10.0.0.1:7070, 10.0.0.2:7070",
		"-backends", "10.0.0.3:7070",
		"-replicas", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Transport{
		PoolSize:        4,
		PrefetchStreams: 3,
		UploadStreams:   2,
		Backends:        []string{"10.0.0.1:7070", "10.0.0.2:7070", "10.0.0.3:7070"},
		Replicas:        2,
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("parsed %+v, want %+v", tr, want)
	}
	if !tr.Sharded() {
		t.Fatal("Sharded() = false with backends set")
	}
}

func TestBindTransportDefaultsPreserved(t *testing.T) {
	tr := Transport{PoolSize: 8, PrefetchStreams: 2, UploadStreams: 5}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindTransport(fs, &tr)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr.PoolSize != 8 || tr.PrefetchStreams != 2 || tr.UploadStreams != 5 {
		t.Fatalf("defaults clobbered: %+v", tr)
	}
	if tr.Sharded() {
		t.Fatal("Sharded() = true without backends")
	}
}

// TestBindTransportFlagSet pins the transport flags every daemon binds;
// a removed knob is a parse error, not a silent no-op.
func TestBindTransportFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(discard{})
	BindTransport(fs, &Transport{})
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"backends", "pool", "prefetch-streams", "replicas", "upload-streams"}; !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
	if err := fs.Parse([]string{"-compress-dict"}); err == nil {
		t.Error("-compress-dict parsed; want it rejected")
	}
}

func TestBindTransportRejectsEmptyBackends(t *testing.T) {
	var tr Transport
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(discard{})
	BindTransport(fs, &tr)
	if err := fs.Parse([]string{"-backends", " , "}); err == nil {
		t.Fatal("blank -backends accepted")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
