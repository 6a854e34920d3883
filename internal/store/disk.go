package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"rampage/internal/metrics"
)

// Disk is the persistent tier: content-addressed blobs as one file per
// key, so results survive restarts and are deduplicated fleet-wide (a
// worker, the coordinator and a restarted coordinator all address the
// same bytes by the same canonical hash). The guarantees a serving
// cache needs from disk:
//
//   - Crash safety: blobs are written to a temp file and published
//     with an atomic rename, so a partially written file is never
//     visible under its final name. Leftover temp files are removed on
//     open.
//   - Integrity: every file carries a checksum over key and payload; a
//     corrupt or truncated file reads as a miss and is deleted rather
//     than served.
//   - Bounded footprint: a byte budget is enforced by LRU GC — least
//     recently used files are removed first.
//   - Restart recovery: opening a Disk over an existing directory
//     re-indexes the files, recency approximated by mtime. Every file
//     is read and its checksum verified before it is indexed, so a torn
//     file is never served after a restart.
//
// All methods are safe for concurrent use, and on a nil *Disk: a nil
// Disk is an absent tier, where every Get misses and every Put is a
// no-op.
type Disk struct {
	dir   string
	stats *metrics.ServiceStats

	mu  sync.Mutex
	idx *lru[struct{}] // sized by on-disk file size (header + payload)
}

// File format: magic, little-endian key length, key bytes, SHA-256 of
// (key || payload), payload.
var diskMagic = []byte("RRS1")

const diskHeaderMin = 4 + 4 + sha256.Size

// diskFileExt marks record files; anything else in the directory is
// ignored (temp files are cleaned up on open).
const diskFileExt = ".res"

// OpenDisk opens (creating if needed) a disk tier rooted at dir with
// the given byte budget (<= 0 = unlimited). Existing record files are
// re-indexed by modification time; leftover temp files from a crashed
// writer are deleted. stats may be nil; when set, the tier counts
// SvcDiskHit, SvcDiskStore and SvcDiskEvict on it.
func OpenDisk(dir string, budgetBytes int64, stats *metrics.ServiceStats) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: disk tier: %w", err)
	}
	d := &Disk{dir: dir, stats: stats, idx: newLRU[struct{}](budgetBytes)}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// recover re-indexes the directory: record files become entries
// (oldest mtime = least recently used), temp files are removed. Keys
// are read from the file headers, so the index survives any renaming
// scheme change. Unreadable or malformed files are deleted — they
// would read as misses anyway.
func (d *Disk) recover() error {
	dirents, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: disk tier: %w", err)
	}
	type found struct {
		key, path string
		size      int64
		mtime     int64
	}
	var files []found
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		path := filepath.Join(d.dir, de.Name())
		if !strings.HasSuffix(de.Name(), diskFileExt) {
			// Temp files (and any other stray name) from a crashed
			// writer: never published, safe to delete.
			if strings.HasPrefix(de.Name(), ".tmp-") {
				os.Remove(path)
			}
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		key, ok := readDiskKey(path)
		if !ok {
			os.Remove(path)
			continue
		}
		files = append(files, found{key: key, path: path, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, f := range files {
		// A duplicate key (should not happen) keeps the newer file.
		evicted, ok := d.idx.put(f.key, struct{}{}, f.size)
		if !ok {
			os.Remove(f.path) // larger than the whole budget
		}
		d.dropEvicted(evicted)
	}
	return nil
}

// path returns the file name for a key. Keys are hashed into the name
// (they may contain suffixes like ":metrics"); the authoritative key
// lives in the file header.
func (d *Disk) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+diskFileExt)
}

// encodeDisk renders the on-disk representation of (key, val).
func encodeDisk(key string, val []byte) []byte {
	buf := make([]byte, 0, diskHeaderMin+len(key)+len(val))
	buf = append(buf, diskMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(val)
	buf = h.Sum(buf)
	return append(buf, val...)
}

// splitDisk parses the header, verifies the checksum and returns
// (key, payload).
func splitDisk(raw []byte) (string, []byte, bool) {
	if len(raw) < diskHeaderMin || !bytes.Equal(raw[:4], diskMagic) {
		return "", nil, false
	}
	klen := int(binary.LittleEndian.Uint32(raw[4:8]))
	if klen < 0 || len(raw) < diskHeaderMin+klen {
		return "", nil, false
	}
	key := string(raw[8 : 8+klen])
	sum := raw[8+klen : 8+klen+sha256.Size]
	payload := raw[8+klen+sha256.Size:]
	h := sha256.New()
	h.Write([]byte(key))
	h.Write(payload)
	if !bytes.Equal(h.Sum(nil), sum) {
		return "", nil, false
	}
	return key, payload, true
}

// readDiskKey extracts the stored key from a file, verifying the full
// checksum (a partially flushed file must not be indexed).
func readDiskKey(path string) (string, bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", false
	}
	key, _, ok := splitDisk(raw)
	return key, ok
}

// Get returns the stored blob for a key. A missing, truncated or
// corrupt file is a miss; corrupt files are deleted. Hits count
// SvcDiskHit and refresh recency (in memory and, best-effort, on the
// file's mtime so recovery preserves LRU order).
func (d *Disk) Get(key string) ([]byte, bool) {
	if d == nil {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.idx.get(key); !ok {
		return nil, false
	}
	path := d.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		d.dropLocked(key)
		return nil, false
	}
	gotKey, val, ok := splitDisk(raw)
	if !ok || gotKey != key {
		d.dropLocked(key)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort recency for restart recovery
	d.stats.Add(metrics.SvcDiskHit, 1)
	return val, true
}

// Put stores a blob under its content address: temp file in the same
// directory, then an atomic rename, so readers never observe a partial
// write. Re-putting an existing key refreshes recency only
// (content-addressed keys guarantee identical bytes). A value larger
// than the whole budget is not stored. Put reports whether the key is
// stored afterwards.
func (d *Disk) Put(key string, val []byte) bool {
	if d == nil {
		return false
	}
	enc := encodeDisk(key, val)
	size := int64(len(enc))
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.idx.get(key); ok {
		return true
	}
	if d.idx.budget > 0 && size > d.idx.budget {
		return false
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		return false
	}
	if _, err := tmp.Write(enc); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return false
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	if err := os.Rename(tmp.Name(), d.path(key)); err != nil {
		os.Remove(tmp.Name())
		return false
	}
	evicted, _ := d.idx.put(key, struct{}{}, size)
	d.stats.Add(metrics.SvcDiskStore, 1)
	d.dropEvicted(evicted)
	return true
}

// dropEvicted deletes the files of entries the budget pushed out and
// counts them. Caller holds the lock.
func (d *Disk) dropEvicted(evicted []lruEntry[struct{}]) {
	for _, ent := range evicted {
		os.Remove(d.path(ent.key))
		d.stats.Add(metrics.SvcDiskEvict, 1)
	}
}

// dropLocked removes an entry and its file. Caller holds the lock.
func (d *Disk) dropLocked(key string) {
	d.idx.remove(key)
	os.Remove(d.path(key))
}

// Keys returns every stored key.
func (d *Disk) Keys() []string {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	keys := make([]string, 0, len(d.idx.items))
	for key := range d.idx.items {
		keys = append(keys, key)
	}
	return keys
}

// Len returns the number of stored blobs.
func (d *Disk) Len() int {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.ll.Len()
}

// Bytes returns the on-disk byte total (headers included).
func (d *Disk) Bytes() int64 {
	if d == nil {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.idx.used
}
