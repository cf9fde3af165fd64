package radar

import (
	"fmt"

	"stapio/internal/cube"
)

// The paper stages radar data through four disk files: "we assume that the
// radar writes its collected data into these four files in a round-robin
// manner and, similarly, the STAP pipeline system reads the four files in a
// round-robin fashion". Dataset reproduces that layout on any file store.

// DefaultFileCount is the paper's number of round-robin staging files.
const DefaultFileCount = 4

// FileStore abstracts where dataset files land: the real striped parallel
// file system backend, a plain directory, or an in-memory store in tests.
type FileStore interface {
	// WriteFile creates (or replaces) the named file with data.
	WriteFile(name string, data []byte) error
}

// FileName returns the canonical name of round-robin staging file i.
func FileName(i int) string { return fmt.Sprintf("cpi_%d.dat", i) }

// FileFor returns the staging file index used for CPI sequence number seq.
func FileFor(seq uint64, fileCount int) int { return int(seq % uint64(fileCount)) }

// WriteDataset generates CPIs seq = 0..count-1 from the scenario and writes
// each into its round-robin staging file on fs (so after the call file i
// holds the most recent CPI with seq ≡ i mod fileCount). Files are written
// in the chunked cube format at the default chunk size, so readers can
// shard decode/verify and re-read individual corrupt chunks.
// It returns the generated cubes for ground-truth checks; pass keep=false
// to discard them and bound memory.
func WriteDataset(fs FileStore, s *Scenario, count, fileCount int, keep bool) ([]*cube.Cube, error) {
	return writeDataset(fs, s, count, fileCount, keep, cube.DefaultChunkSize)
}

// WriteDatasetChunked is WriteDataset with an explicit chunk size (a
// positive multiple of 8), for callers tuning checksum granularity — small
// test cubes need small chunks before partial re-read has anything partial
// about it.
func WriteDatasetChunked(fs FileStore, s *Scenario, count, fileCount int, keep bool, chunkSize int) ([]*cube.Cube, error) {
	if chunkSize <= 0 || chunkSize%8 != 0 {
		return nil, fmt.Errorf("radar: chunk size %d is not a positive multiple of 8", chunkSize)
	}
	return writeDataset(fs, s, count, fileCount, keep, chunkSize)
}

func writeDataset(fs FileStore, s *Scenario, count, fileCount int, keep bool, chunkSize int) ([]*cube.Cube, error) {
	if fileCount <= 0 {
		return nil, fmt.Errorf("radar: fileCount %d <= 0", fileCount)
	}
	if count < 0 {
		return nil, fmt.Errorf("radar: count %d < 0", count)
	}
	var kept []*cube.Cube
	buf := make([]byte, cube.FileBytesChunked(s.Dims, chunkSize))
	for seq := 0; seq < count; seq++ {
		cb, err := s.Generate(uint64(seq))
		if err != nil {
			return nil, err
		}
		cube.EncodeChunked(cb, uint64(seq), chunkSize, buf)
		name := FileName(FileFor(uint64(seq), fileCount))
		if err := fs.WriteFile(name, buf); err != nil {
			return nil, fmt.Errorf("radar: writing %s: %w", name, err)
		}
		if keep {
			kept = append(kept, cb)
		}
	}
	return kept, nil
}

// DatasetFileBytes returns the size of one staging file as WriteDataset
// lays it out (chunked format, default chunk size).
func DatasetFileBytes(d cube.Dims) int64 {
	return cube.FileBytesChunked(d, cube.DefaultChunkSize)
}

// MemStore is an in-memory FileStore for tests.
type MemStore struct {
	Files map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{Files: make(map[string][]byte)} }

// WriteFile implements FileStore.
func (m *MemStore) WriteFile(name string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.Files[name] = cp
	return nil
}
