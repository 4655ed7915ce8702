package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// trainFile runs `anchor train` for one mc snapshot and returns the .bin
// path it wrote.
func trainFile(t *testing.T, config string, dim, year int) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), config+"-"+strconv.Itoa(dim)+"-"+strconv.Itoa(year)+".bin")
	args := []string{"-algo", "mc", "-dim", strconv.Itoa(dim), "-seed", "5",
		"-year", strconv.Itoa(year), "-config", config, "-workers", "2", "-out", out}
	if err := cmdTrain(context.Background(), args); err != nil {
		t.Fatalf("train %v: %v", args, err)
	}
	return out
}

// measureOutput runs `anchor measure -a a -b b` plus any extra flags
// (which override the defaults given before them) and returns what it
// printed to stdout.
func measureOutput(t *testing.T, a, b string, extra ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	args := []string{"-a", a, "-b", b, "-bits", "4", "-top", "200", "-workers", "2"}
	err = cmdMeasure(context.Background(), append(args, extra...))
	os.Stdout = stdout
	printed, readErr := os.ReadFile(f.Name())
	if readErr != nil {
		t.Fatal(readErr)
	}
	return string(printed), err
}

// TestMeasure covers `anchor measure` on .bin files written by `anchor
// train`: a default-config pair prints the five measures, and a pair it
// cannot measure (another corpus's vocabulary, or two shapes) or a -top or
// -bits below 1 is an error, not a panic.
func TestMeasure(t *testing.T) {
	a8, b8 := trainFile(t, "repro", 8, 2017), trainFile(t, "repro", 8, 2018)

	t.Run("default-config pair", func(t *testing.T) {
		out, err := measureOutput(t, a8, b8)
		if err != nil {
			t.Fatal(err)
		}
		names := []string{"eigenspace-instability", "1-knn", "semantic-displacement", "pip-loss", "1-eigenspace-overlap"}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != len(names) {
			t.Fatalf("printed %d lines, want one per measure:\n%s", len(lines), out)
		}
		for i, name := range names {
			if fields := strings.Fields(lines[i]); len(fields) != 2 || fields[0] != name {
				t.Errorf("line %d = %q, want %s and its value", i, lines[i], name)
			}
		}
	})
	t.Run("small-config pair", func(t *testing.T) {
		_, err := measureOutput(t, trainFile(t, "small", 8, 2017), trainFile(t, "small", 8, 2018))
		if err == nil || !strings.Contains(err.Error(), "vocabulary") {
			t.Fatalf("err = %v, want a vocabulary mismatch", err)
		}
	})
	t.Run("shape mismatch", func(t *testing.T) {
		_, err := measureOutput(t, a8, trainFile(t, "repro", 16, 2018))
		if err == nil || !strings.Contains(err.Error(), "shape") {
			t.Fatalf("err = %v, want a shape mismatch", err)
		}
	})
	for _, bad := range [][2]string{{"-top", "0"}, {"-top", "-1"}, {"-bits", "0"}} {
		t.Run(bad[0]+" "+bad[1], func(t *testing.T) {
			_, err := measureOutput(t, a8, b8, bad[0], bad[1])
			if err == nil || !strings.Contains(err.Error(), bad[0]+" "+bad[1]) {
				t.Fatalf("err = %v, want an error naming %s %s", err, bad[0], bad[1])
			}
		})
	}
}
