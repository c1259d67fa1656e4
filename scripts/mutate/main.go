// Command mutate checks that the tests catch the bugs they were written for.
// Each scripts/mutants/*.patch plants one such bug and names, in its header,
// the tests that must then fail:
//
//	# what the mutant breaks
//	mutant: pkg=./internal/sn/cache run=^TestX$ flags=-race,-count=3
//
// For every patch, mutate copies the tree (the files git tracks, and the
// untracked ones it does not ignore) to a temporary directory, runs the named
// tests there, which must pass, applies the patch with `git apply`, checks
// that the package still builds, and runs the tests again, which must now
// fail. It exits nonzero if a patch no longer applies or builds, if the tests
// fail on the unpatched tree, or if a mutant survives. Each test run is bounded
// by testTimeout (go test's own -timeout, so a hang fails the run). Run it from
// the repository root:
//
//	go run ./scripts/mutate
package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// testTimeout bounds each go test run of a mutant's tests.
const testTimeout = 120 * time.Second

// mutant is a patch and the tests its header says must fail once applied.
type mutant struct {
	patch string
	pkg   string
	run   string
	flags []string
}

func main() {
	patches, err := filepath.Glob("scripts/mutants/*.patch")
	if err != nil || len(patches) == 0 {
		fatalf("no patches under scripts/mutants (run from the repository root): %v", err)
	}
	files, err := treeFiles()
	if err != nil {
		fatalf("list the tree: %v", err)
	}
	failed := 0
	for _, p := range patches {
		start := time.Now()
		m, err := readMutant(p)
		if err == nil {
			err = check(m, files)
		}
		if err != nil {
			failed++
			fmt.Printf("FAIL %s (%.1fs): %v\n", p, time.Since(start).Seconds(), err)
			continue
		}
		fmt.Printf("ok   %s (%.1fs): killed by %s in %s\n", p, time.Since(start).Seconds(), m.run, m.pkg)
	}
	if failed > 0 {
		fatalf("%d of %d mutants not checked or survived", failed, len(patches))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mutate: "+format+"\n", args...)
	os.Exit(1)
}

// readMutant parses the "mutant:" header line of a patch.
func readMutant(path string) (mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return mutant{}, err
	}
	defer f.Close()
	m := mutant{patch: path}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "mutant:")
		if !ok {
			continue
		}
		for _, field := range strings.Fields(line) {
			k, v, _ := strings.Cut(field, "=")
			switch k {
			case "pkg":
				m.pkg = v
			case "run":
				m.run = v
			case "flags":
				if v != "" {
					m.flags = strings.Split(v, ",")
				}
			default:
				return m, fmt.Errorf("unknown header field %q", k)
			}
		}
		if m.pkg == "" || m.run == "" {
			return m, errors.New("header names no pkg or no run")
		}
		return m, nil
	}
	if err := sc.Err(); err != nil {
		return m, err
	}
	return m, errors.New(`no "mutant:" header line`)
}

// treeFiles lists the tree as git sees it: tracked files and untracked ones
// that are not ignored, relative to the repository root.
func treeFiles() ([]string, error) {
	out, err := exec.Command("git", "ls-files", "-z", "--cached", "--others", "--exclude-standard").Output()
	if err != nil {
		return nil, err
	}
	var files []string
	for _, f := range strings.Split(string(out), "\x00") {
		if f != "" {
			files = append(files, f)
		}
	}
	return files, nil
}

// check runs m's tests on a copy of the tree, then on the copy with m's patch
// applied.
func check(m mutant, files []string) error {
	dir, err := os.MkdirTemp("", "mutate-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := copyTree(dir, files); err != nil {
		return err
	}
	args := append([]string{"test", "-timeout", testTimeout.String()}, m.flags...)
	if out, err := goCmd(dir, append(args, "-run", m.run, m.pkg)...); err != nil {
		return fmt.Errorf("the tests fail without the mutant:\n%s", out)
	}
	patch, err := filepath.Abs(m.patch)
	if err != nil {
		return err
	}
	apply := exec.Command("git", "apply", patch)
	apply.Dir = dir
	if out, err := apply.CombinedOutput(); err != nil {
		return fmt.Errorf("patch no longer applies: %v\n%s", err, out)
	}
	if out, err := goCmd(dir, append(args, "-run", "^$", m.pkg)...); err != nil {
		return fmt.Errorf("the mutant does not build:\n%s", out)
	}
	if _, err := goCmd(dir, append(args, "-run", m.run, m.pkg)...); err == nil {
		return errors.New("mutant survived: its tests pass")
	}
	return nil
}

// goCmd runs the go tool in dir and returns its combined output.
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	return out.Bytes(), err
}

// copyTree copies files, relative to the working directory, into dir.
func copyTree(dir string, files []string) error {
	for _, f := range files {
		src, err := os.Open(f)
		if errors.Is(err, os.ErrNotExist) {
			continue // deleted from the working tree, not yet from the index
		}
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, f)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			src.Close()
			return err
		}
		out, err := os.Create(dst)
		if err == nil {
			_, err = io.Copy(out, src)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		src.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
