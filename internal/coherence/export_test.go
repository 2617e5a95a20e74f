package coherence

import (
	"slices"

	"cachesync/internal/addr"
)

// Pending returns a copy of the distinct blocks journaled since the
// last Check, in ascending order.
func (o *Online) Pending() []addr.Block { return slices.Clone(o.journal.Sorted()) }
