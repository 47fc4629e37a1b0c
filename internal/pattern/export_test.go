package pattern

// Hooks for the external tests, which import packages that import this one.
var (
	MatchCounted = matchCounted
	RoundsMatch  = roundsMatch
)
