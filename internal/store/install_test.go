package store

import (
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
	img, err := decodeImage(b)
	if err != nil {
		t.Fatal(err)
	}
	shipped, body := weak.Make(&b[0]), weak.Make(&img.data[0])
	parts := img.parts
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
