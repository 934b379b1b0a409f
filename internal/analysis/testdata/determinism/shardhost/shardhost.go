// Golden cases for the determinism analyzer, in a package named shardhost:
// the shard-host policy takes its clock from the caller.
package shardhost

import "time"

type Observer struct{ notBefore time.Duration }

// Due reads the wall clock: red case.
func (o *Observer) Due(start time.Time) bool {
	return time.Since(start) >= o.notBefore // want `time\.Since breaks seeded replay`
}

// Stamp reads the wall clock: red case.
func Stamp() time.Time {
	return time.Now() // want `time\.Now breaks seeded replay`
}

// DueAt takes the caller's clock: green case.
func (o *Observer) DueAt(now time.Duration) bool {
	return now >= o.notBefore
}
