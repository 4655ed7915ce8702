//go:build unix

package store

import (
	"fmt"
	"os"
	"syscall"

	"anchor/internal/embedding"
	"anchor/internal/faults"
)

// MapBinaryFile memory-maps a binary artifact read-only and decodes it in
// place: the returned embedding's float64 storage is the page cache
// itself, so no payload bytes are read or copied until touched. close
// unmaps the file; the embedding (and anything aliasing its matrix) must
// not be used afterwards. Callers that need an embedding with an unbounded
// lifetime should use LoadBinaryFile instead.
func MapBinaryFile(path string) (e *embedding.Embedding, close func() error, err error) {
	if err := faults.Error(siteBinRead); err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: %w", err)
	}
	if st.Size() == 0 || st.Size() > int64(int(^uint(0)>>1)) {
		return nil, nil, fmt.Errorf("store: cannot map %s: %d bytes", path, st.Size())
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	e, err = DecodeBinary(data)
	if err != nil {
		syscall.Munmap(data)
		return nil, nil, err
	}
	return e, func() error { return syscall.Munmap(data) }, nil
}
