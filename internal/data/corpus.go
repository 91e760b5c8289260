package data

import (
	"fmt"
	"os"
	"path/filepath"
)

// corpusFiles resolves a corpus path to its ordered file list. A regular
// file is a one-file corpus; a directory is a multi-file corpus made of
// its regular files in sorted name order (subdirectories and dotfiles are
// skipped — no recursion). The order is what defines the corpus: files
// are concatenated logically, a file boundary separates documents exactly
// like a blank line, and document indices run globally across the list,
// so shardOf sees one corpus no matter how it is split on disk.
func corpusFiles(path string) ([]string, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("data: opening corpus: %w", err)
	}
	if !info.IsDir() {
		return []string{path}, nil
	}
	entries, err := os.ReadDir(path) // sorted by filename
	if err != nil {
		return nil, fmt.Errorf("data: reading corpus directory: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if !e.Type().IsRegular() || e.Name()[0] == '.' {
			continue
		}
		paths = append(paths, filepath.Join(path, e.Name()))
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%w: directory %s holds no corpus files", ErrCorpus, path)
	}
	return paths, nil
}
