package durable

import "marketscope/internal/appmeta"

// SnapshotContents decodes one snapshot file's cursor and APK blobs, so the
// external tests can check what a generation persisted, not only what a
// store recovered from it.
func SnapshotContents(fsys FS, path string) (uint64, map[appmeta.Key][]byte, error) {
	data, err := loadSnapshotFile(fsys, path)
	if err != nil {
		return 0, nil, err
	}
	return data.cursor, data.blobs, nil
}
