package lint

// All returns the chanos-vet analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{MapIter, WallClock, SharedState, MsgOwnership}
}
