//go:build objmig_poison

package framebuf

// poison makes Put scribble over every buffer handed to it, so a
// consumer that reads a frame after recycling it reads garbage, and
// under -race also races the scribble. Run tests with -tags
// objmig_poison to turn it on; a normal build compiles it away.
const poison = true
