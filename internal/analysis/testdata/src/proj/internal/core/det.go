// Package core seeds detrange violations: map iteration order leaking into
// outputs inside a deterministic package.
package core

import (
	"bytes"
	"sort"
)

// emitUnsorted appends map keys in iteration order and never re-sorts: the
// caller observes nondeterministic order. Finding expected.
func emitUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// emitSorted is the sanctioned collect-then-sort idiom. Clean.
func emitSorted(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// emitChan sends keys in iteration order. Finding expected.
func emitChan(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k
	}
}

// emitWrite streams keys in iteration order. Finding expected.
func emitWrite(m map[string]int, w *bytes.Buffer) {
	for k := range m {
		w.WriteString(k)
	}
}

// emitAllowed is deliberately exempt: the suppression must silence it.
func emitAllowed(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:allow detrange caller re-canonicalizes the slice before use
		out = append(out, k)
	}
	return out
}

// sumValues only folds commutatively over the map. Clean.
func sumValues(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// dealUnsorted deals node windows from one counter while ranging over a map:
// which nodes a key gets depends on the keys visited before it. Finding
// expected.
func dealUnsorted(alloc map[string]int, nodes int) map[string][]int {
	next := 0
	windows := make(map[string][]int)
	for key, share := range alloc {
		for w := 0; w < share; w++ {
			windows[key] = append(windows[key], next%nodes)
			next++
		}
	}
	return windows
}

// dealSorted deals the same windows over sorted keys. Clean.
func dealSorted(alloc map[string]int, nodes int) map[string][]int {
	keys := make([]string, 0, len(alloc))
	for key := range alloc {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	next := 0
	windows := make(map[string][]int)
	for _, key := range keys {
		for w := 0; w < alloc[key]; w++ {
			windows[key] = append(windows[key], next%nodes)
			next++
		}
	}
	return windows
}

// fillSorted stores keys at a counter's index and sorts the slice after:
// collect-then-sort. Clean.
func fillSorted(m map[string]int) []string {
	out := make([]string, len(m))
	i := 0
	for k := range m {
		out[i] = k
		i++
	}
	sort.Strings(out)
	return out
}

// maxKey keeps the largest value seen: min/max selection. Clean.
func maxKey(m map[string]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}
