//go:build race

package tcpnet

// raceEnabled disables alloc-count assertions: the race runtime
// allocates on instrumented paths.
const raceEnabled = true
