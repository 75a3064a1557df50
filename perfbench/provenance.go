package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// provenance stamps a result with what produced it: the commit (as the
// caller knows it) and a digest of the Go sources under the working
// directory (always, since a benchmark checkout need not be a
// repository), the toolchain, the parallelism, the machine and the seed.
func provenance(commit string, seed uint64) map[string]any {
	return map[string]any{
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go_version":    runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"seed":          seed,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceDigest hashes every go.mod and .go file under root (paths and
// contents, in walk order), skipping build output and version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (strings.HasPrefix(n, ".") || n == "bin") {
				return filepath.SkipDir
			}
			return nil
		}
		if !d.Type().IsRegular() || (d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go")) {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
