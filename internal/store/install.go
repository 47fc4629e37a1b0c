package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/snapfile"
	"repro/internal/wal"
)

// An image is one published snapshot — G and both views — in the
// checkpoint's own encoding, with the lineage of its views: every
// full-state transfer a follower takes. Its wire form is the effect
// version, kind 1, the u64 lineage, the snapfile bytes (checksummed and
// validated by snapfile, as a checkpoint is at recovery) and a CRC-32C of
// everything before it.

// The effect kinds, the second byte of every shipped effect, and the bytes
// of an image before its snapfile encoding.
const (
	kindDiff    = 0
	kindImage   = 1
	imageHeader = 10
)

// encodeImage returns the image of sn.
func encodeImage(sn *Snapshot) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{effectVersion, kindImage}, sn.Lineage)
	b = snapfile.AppendStore(b, storeParts(sn))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, castagnoli))
}

// isImage reports whether shipped effect bytes claim to be an image;
// decodeImage checks the claim.
func isImage(b []byte) bool { return len(b) > 1 && b[1] == kindImage }

// image is a decoded image: the lineage of its views, its snapfile encoding
// — a view of the shipped bytes, which the install writes to disk — and the
// parts decoded from it, which own their arrays.
type image struct {
	lineage uint64
	data    []byte
	parts   *snapfile.StoreParts
}

// decodeImage parses and validates an image end to end.
func decodeImage(b []byte) (*image, error) {
	if len(b) < imageHeader+4 {
		return nil, fmt.Errorf("image of %d bytes", len(b))
	}
	body := b[:len(b)-4]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return nil, errors.New("image checksum mismatch")
	}
	if b[0] != effectVersion || b[1] != kindImage {
		return nil, fmt.Errorf("image version %d kind %d", b[0], b[1])
	}
	// No copy: the decoded parts own their arrays, so the shipped bytes,
	// which may alias a connection's read buffer, are needed only until the
	// install returns.
	img := &image{lineage: binary.LittleEndian.Uint64(b[2:]), data: body[imageHeader:]}
	p, err := snapfile.DecodeStore(img.data)
	if err != nil {
		return nil, err
	}
	img.parts = p
	return img, nil
}

// OpenImage creates a store from an image (Store.Effects ships them) in
// opts.Dir, which must hold no state — a directory an install left half
// done has none — through the install ApplyEffect runs on a live store. The
// store holds no maintainer until its first write or promotion.
func OpenImage(b []byte, opts *Options) (*Store, error) {
	o := DefaultOptions()
	if opts != nil {
		o = *opts
	}
	if o.Dir != "" && HasState(o.FS, o.Dir) {
		return nil, fmt.Errorf("store: %s already holds durable state", o.Dir)
	}
	img, err := decodeImage(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrEffect, err)
	}
	return start(o, func(s *Store) error {
		s.nodes = img.parts.G.NumNodes()
		if o.Dir != "" {
			d, err := newDurable(o, snapfile.KindStore)
			if err != nil {
				return err
			}
			s.dur = d
		}
		if err := s.installImage(img); err != nil {
			return err
		}
		if s.dur != nil {
			s.dur.startBackground(s.persist)
		}
		return nil
	})
}

// installImage makes img the store's whole state, the directory's first,
// with no maintainer and no effect of the replaced history. Its epoch may
// be below the current one: a survivor that got ahead of a new leader.
// Writer goroutine, or an open before the writer has work.
func (s *Store) installImage(img *image) error {
	p := img.parts
	sn := s.snapshotOf(p, img.lineage)
	swap := func() {
		s.m = nil
		s.ring.reset()
		s.batches.Store(p.Epoch)
		s.install(sn)
	}
	if s.dur == nil {
		swap()
	} else if err := s.dur.install(p.Epoch, img.data, swap); err != nil {
		return err
	}
	s.mark(p.Epoch)
	return nil
}

// install replaces the directory's state with the snapshot file data at
// epoch, then runs swap, the store's in-memory half, still under the
// checkpoint lock a checkpoint pins its view under. In order: wait out a
// background checkpoint in flight (its view is of the replaced history);
// remove the MANIFEST, so that until the new one a crash leaves no state
// for the next start to fill from a fresh image; write the snapshot file
// (ReplaceFile's directory fsync also makes the removal durable); reset the
// WAL to epoch+1; write the MANIFEST; remove every other snapshot file;
// swap. A failure in between leaves the directory without state under a
// store serving the replaced view, so it degrades the write path: the
// recovery loop's checkpoint of that view makes the directory whole again.
func (d *durable) install(epoch uint64, data []byte, swap func()) error {
	d.wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.fs.Remove(filepath.Join(d.dir, manifestName)); err != nil && !os.IsNotExist(err) {
		return err
	}
	d.ckptEver.Store(false)
	name := snapshotName(epoch)
	err := faultfs.ReplaceFile(d.fs, filepath.Join(d.dir, name), data)
	if err == nil {
		err = d.resetLog(epoch + 1)
	}
	if err == nil {
		err = writeManifest(d.fs, d.dir, manifest{kind: d.kind, epoch: epoch, snapshot: name})
	}
	if err != nil {
		d.degrade(err)
		return err
	}
	d.lastCkpt.Store(epoch)
	d.ckptEver.Store(true)
	err = d.removeSnapshotsBut(epoch)
	swap()
	return err
}

// resetLog starts the WAL afresh at next, removing every segment: the open
// log's, or — before the log is opened — whatever a crashed install left.
func (d *durable) resetLog(next uint64) error {
	if d.log != nil {
		return d.log.Reset(next)
	}
	segs, err := wal.ListDir(d.fs, d.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		if err := d.fs.Remove(filepath.Join(d.dir, seg.Name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return d.openLog(next)
}
