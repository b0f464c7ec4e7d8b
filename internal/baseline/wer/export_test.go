package wer

import "sort"

// TopBuckets returns the n most frequent buckets — the triage queue a human
// developer would work through.
func (c *Collector) TopBuckets(n int) []Bucket {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Bucket, 0, len(c.buckets))
	for _, b := range c.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Signature < out[j].Signature
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
