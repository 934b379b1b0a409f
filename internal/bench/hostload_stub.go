//go:build !linux

package bench

// sampleLoad reports nothing where /proc/stat is missing; every retention
// window then counts as quiet (see quietWindow).
func sampleLoad() (hostLoad, bool) { return hostLoad{}, false }
