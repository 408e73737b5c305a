package objmig

import (
	"errors"
	"fmt"

	"objmig/internal/wire"
)

// Sentinel errors of the public API. Remote failures are translated to
// these, so callers can test with errors.Is regardless of which node
// produced the failure.
var (
	// ErrNotFound: no node on the lookup path knows the object.
	ErrNotFound = errors.New("objmig: object not found")
	// ErrFixed: the object is fixed and cannot migrate.
	ErrFixed = errors.New("objmig: object is fixed")
	// ErrDenied is the paper's "indication": a move-request lost
	// against a transient-placement lock, a dynamic policy kept the
	// object where it is, or the requested working set was busy. The
	// block's calls simply proceed to the object's current location.
	ErrDenied = errors.New("objmig: move denied")
	// ErrUnknownType: the receiving node has no registration for the
	// object's type and cannot host or create it.
	ErrUnknownType = errors.New("objmig: unknown object type")
	// ErrUnknownMethod: the object's type has no such method.
	ErrUnknownMethod = errors.New("objmig: unknown method")
	// ErrExclusive: the attachment violated the exclusive-attachment
	// rule and was ignored.
	ErrExclusive = errors.New("objmig: exclusive attachment refused")
	// ErrClosed: the node has been shut down.
	ErrClosed = errors.New("objmig: node closed")
	// ErrUnreachable: the chase lost the object's location — the origin
	// answered with nothing newer than a redirect the chase had already
	// followed (see chase.follow).
	ErrUnreachable = errors.New("objmig: object unreachable")
)

// fromRemote translates a wire-level error into the public sentinels,
// wrapping to preserve the remote message.
func fromRemote(err error) error {
	if err == nil {
		return nil
	}
	var re *wire.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	switch re.Code {
	case wire.CodeNotFound:
		return fmt.Errorf("%w: %s", ErrNotFound, re.Msg)
	case wire.CodeFixed:
		return fmt.Errorf("%w: %s", ErrFixed, re.Msg)
	case wire.CodeDenied:
		return fmt.Errorf("%w: %s", ErrDenied, re.Msg)
	case wire.CodeUnknownType:
		return fmt.Errorf("%w: %s", ErrUnknownType, re.Msg)
	case wire.CodeUnknownMethod:
		return fmt.Errorf("%w: %s", ErrUnknownMethod, re.Msg)
	case wire.CodeExclusive:
		return fmt.Errorf("%w: %s", ErrExclusive, re.Msg)
	case wire.CodeUnavailable:
		return fmt.Errorf("%w: %s", ErrClosed, re.Msg)
	default:
		return re
	}
}
