package durable

import "marketscope/internal/appmeta"

// SnapshotContents full-loads one snapshot file and returns its cursor and
// APK blobs, so the external tests can check what a generation persisted,
// not only what a store recovered from it.
func SnapshotContents(fsys FS, path string) (uint64, map[appmeta.Key][]byte, error) {
	data, err := loadFull(fsys, path)
	if err != nil {
		return 0, nil, err
	}
	return data.cursor, data.blobs, nil
}

// PatchSnapshotVersion returns a copy of an encoded snapshot whose header
// claims the given format version, its checksum fixed up.
var PatchSnapshotVersion = patchHeaderVersion
