// Package maporder holds fixtures for the maporder analyzer: range-over-
// map bodies that emit order-sensitive results must be flagged unless the
// collect-then-sort idiom (or a keyed, visit-once accumulation) makes the
// result order-free.
package maporder

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// CollectUnsorted appends map keys and never sorts them.
func CollectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside map iteration with no following sort`
	}
	return keys
}

// CollectSorted is the blessed collect-then-sort idiom (experiments.IDs).
func CollectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// bag exercises sort detection on a field target via sort.Slice.
type bag struct{ items []string }

// CollectField appends into a struct field that is sorted afterwards.
func CollectField(m map[string]int) bag {
	var b bag
	for k := range m {
		b.items = append(b.items, k)
	}
	sort.Slice(b.items, func(i, j int) bool { return b.items[i] < b.items[j] })
	return b
}

// SumUnsorted folds float values in map iteration order.
func SumUnsorted(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into sum inside map iteration`
	}
	return sum
}

// MergeKeyed writes through the range key: every slot is visited exactly
// once, so iteration order cannot change the sums (the cooc shard merge).
func MergeKeyed(dst, src map[uint64]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// IntCount accumulates integers: associative, so order-free.
func IntCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// LocalPerIteration resets its float accumulator every iteration, so only
// the unsorted append is order-sensitive.
func LocalPerIteration(m map[string][]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, vs := range m {
		var rowSum float64
		for _, v := range vs {
			rowSum += v
		}
		out = append(out, rowSum) // want `append to out inside map iteration`
	}
	return out
}

// EmitUnsorted interleaves I/O with map iteration.
func EmitUnsorted(w io.Writer, m map[string]int) {
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want `fmt.Fprintf inside map iteration`
	}
}

// WriteAll streams keys through a writer method in map order.
func WriteAll(w *bufio.Writer, m map[string]bool) {
	for k := range m {
		w.WriteString(k) // want `WriteString call inside map iteration`
	}
}

// Scratch documents an intentionally unordered append in place.
func Scratch(m map[string]int) []string {
	var scratch []string
	for k := range m {
		//anchorlint:ignore maporder fixture: scratch order is irrelevant downstream
		scratch = append(scratch, k)
	}
	return scratch
}
