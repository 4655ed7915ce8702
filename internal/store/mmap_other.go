//go:build !unix

package store

import "anchor/internal/embedding"

// MapBinaryFile falls back to LoadBinaryFile on platforms without mmap
// support; close is then a no-op and the embedding has no lifetime bound.
func MapBinaryFile(path string) (e *embedding.Embedding, close func() error, err error) {
	e, err = LoadBinaryFile(path)
	if err != nil {
		return nil, nil, err
	}
	return e, func() error { return nil }, nil
}
