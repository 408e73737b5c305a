//go:build !objmig_poison

package framebuf

// poison is off: Put recycles buffers as they are (see poison.go).
const poison = false
