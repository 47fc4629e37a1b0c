package store

import (
	"fmt"
	"path/filepath"

	"repro/internal/faultfs"
	"repro/internal/snapfile"
)

// InstallSnapshot seeds dir with a shipped snapshot image so a follower can
// bootstrap by ordinary recovery: the bytes are fully decoded and validated
// first (corrupt or foreign images error before anything is written), then
// persisted through fsys (nil = the disk) as the directory's checkpoint file
// and named by a fresh MANIFEST. epoch must match the image's embedded
// epoch — a guard against a leader and follower disagreeing about what was
// shipped. Any existing durable state in dir is an error; callers resyncing
// a diverged follower must wipe the directory first, which keeps a
// half-replaced store from ever looking recoverable.
func InstallSnapshot(fsys faultfs.FS, dir string, epoch uint64, data []byte) error {
	p, err := snapfile.DecodeStore(data)
	if err != nil {
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	if p.Epoch != epoch {
		return fmt.Errorf("store: install snapshot: image is epoch %d, want %d", p.Epoch, epoch)
	}
	fsys = faultfs.Or(fsys)
	if HasState(fsys, dir) {
		return fmt.Errorf("store: install snapshot: %s already holds durable state", dir)
	}
	if err := fsys.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	name := fmt.Sprintf("snap-%016x.qps", epoch)
	if err := faultfs.ReplaceFile(fsys, filepath.Join(dir, name), data); err != nil {
		return err
	}
	return writeManifest(fsys, dir, manifest{kind: snapfile.KindStore, epoch: epoch, snapshot: name})
}
