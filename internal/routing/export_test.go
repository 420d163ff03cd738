package routing

// StorageEntries returns t's entries in storage order, the order buildView
// and CandidatesInto read them in (Entries sorts its copy).
func (t *Table) StorageEntries() []Entry { return t.entries }

// ColumnDiff is columnDiff for the external tests.
var ColumnDiff = columnDiff
