package journal

// Op mirrors the record the hive appends.
type Op struct{}

// Receipt mirrors the journal's word that an op is on record.
type Receipt struct{ op *Op }

// Store mirrors the journal store.
type Store struct{}

// Commit mirrors the receipt-minting append.
func (s *Store) Commit(op *Op) (Receipt, error) { return Receipt{op: op}, nil }
