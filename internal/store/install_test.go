package store

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"weak"

	"repro/internal/gen"
)

// TestDecodedImagePinsNoBytes decodes an image and keeps only its parts, as
// an installed snapshot does: once the shipped bytes are dropped, nothing
// may reach them, nor the snapfile encoding they carry.
func TestDecodedImagePinsNoBytes(t *testing.T) {
	s := mustOpen(t, gen.Social(rand.New(rand.NewSource(5)), 400, 1600, 3), nil)
	defer s.Close()
	b := encodeImage(s.Snapshot())
	img, err := decodeEffect(b)
	if err != nil {
		t.Fatal(err)
	}
	shipped, body := weak.Make(&b[0]), weak.Make(&img.data[0])
	parts := img.image
	b, img = nil, nil
	runtime.GC()
	runtime.GC()
	if shipped.Value() != nil || body.Value() != nil {
		t.Fatal("the decoded parts still reach the image's bytes")
	}
	if !parts.G.Equal(s.Snapshot().G) || !parts.PatternGr.Equal(s.Snapshot().Pattern.Gr) {
		t.Fatal("the decoded parts differ from the snapshot encoded")
	}
}

// TestOpenImageRefusesDiff: a diff's frame parses, but only an image opens
// a store; the refusal leaves the directory without state.
func TestOpenImageRefusesDiff(t *testing.T) {
	g := gen.Social(rand.New(rand.NewSource(5)), 400, 1600, 3)
	mirror := g.Clone()
	s := mustOpen(t, g, nil)
	defer s.Close()
	sn := s.Snapshot()
	s.Effects(sn.Lineage, sn.Epoch) // the first call turns recording on
	if _, err := s.Apply(gen.RandomBatch(rand.New(rand.NewSource(6)), mirror, 40, 0.5)); err != nil {
		t.Fatal(err)
	}
	effs := s.Effects(sn.Lineage, sn.Epoch)
	if len(effs) != 1 || effs[0].Image {
		t.Fatalf("want one diff, got %d effects", len(effs))
	}
	dir := t.TempDir()
	if f, err := OpenImage(effs[0].Bytes, &Options{Dir: dir}); !errors.Is(err, ErrEffect) {
		if err == nil {
			f.Close()
		}
		t.Fatalf("OpenImage of a diff = %v, want ErrEffect", err)
	}
	if HasState(nil, dir) {
		t.Fatal("a refused image left durable state behind")
	}
}
