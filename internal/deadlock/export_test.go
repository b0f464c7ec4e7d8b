package deadlock

import (
	"fmt"
	"strings"
)

// Key returns a canonical string identity for deduplication.
func (s Signature) Key() string {
	parts := make([]string, len(s.Edges))
	for i, e := range s.Edges {
		parts[i] = fmt.Sprintf("%d:%d", e.PC, e.LockID)
	}
	return strings.Join(parts, ",")
}
