//go:build race

package reach

// Under the race detector sync.Pool deliberately drops a fraction of Puts,
// so the pooled search arenas cannot promise zero allocations there.
const raceEnabled = true
