// Package kinddispatch is lint-test fodder for the kinddispatch
// analyzer: switches over artifact kinds must be exhaustive or carry a
// default.
package kinddispatch

// The kind registry: every string constant whose name matches the
// Kind* convention, deduplicated by value.
const (
	KindModel   = "model"
	KindPyramid = "pyramid"

	// kindPyramidAlias shares a value with KindPyramid; the registry
	// dedupes by value so it does not demand a second case.
	kindPyramidAlias = "pyramid"

	// plainConstant is a string constant outside the naming
	// convention and must not anchor a kind switch.
	plainConstant = "other"
)

// Artifact mirrors the shape of cdt.Artifact.
type Artifact interface {
	Kind() string
}

// Model is a registered artifact implementation.
type Model struct{}

// Kind implements Artifact.
func (*Model) Kind() string { return KindModel }

// Pyramid is the second registered artifact implementation.
type Pyramid struct{}

// Kind implements Artifact.
func (*Pyramid) Kind() string { return KindPyramid }

func missingKind(k string) {
	switch k { // want `switch on artifact kind does not handle registered kind "pyramid" and has no default`
	case KindModel:
	}
}

func exhaustiveKinds(k string) {
	switch k {
	case KindModel:
	case KindPyramid:
	}
}

func defaultedKind(k string) error {
	switch k {
	case KindModel:
		return nil
	default:
		return errUnknown
	}
}

// mixedLiteralCase covers a registered value by literal rather than by
// constant name; value coverage is what counts.
func mixedLiteralCase(k string) {
	switch k {
	case KindModel:
	case "pyramid":
	}
}

// plainStringSwitch references no kind constant and is not a kind
// switch at all.
func plainStringSwitch(s string) {
	switch s {
	case "a":
	case plainConstant:
	}
}

// kindOf mirrors the serving gate's tag shape: the switched value is a
// call result, not a plain variable.
func kindOf(a Artifact) string { return a.Kind() }

// shadowSameKindGate is the shadow-start shape — dispatch a candidate's
// kind before pairing it with the incumbent. Anchoring must work off
// the case constants even though the tag is a call expression.
func shadowSameKindGate(candidate, incumbent Artifact) bool {
	switch kindOf(candidate) { // want `switch on artifact kind does not handle registered kind "pyramid" and has no default`
	case KindModel:
		return kindOf(incumbent) == KindModel
	}
	return false
}

// shadowSameKindGateExhaustive handles every registered kind; the
// per-kind pairing compiles down to same-kind comparisons.
func shadowSameKindGateExhaustive(candidate, incumbent Artifact) bool {
	switch kindOf(candidate) {
	case KindModel:
		return kindOf(incumbent) == KindModel
	case KindPyramid:
		return kindOf(incumbent) == KindPyramid
	}
	return false
}

func missingImpl(a Artifact) {
	switch a.(type) { // want `type switch on Artifact does not handle implementation kinddispatch\.Pyramid and has no default`
	case *Model:
	}
}

func missingImplBound(a Artifact) {
	switch v := a.(type) { // want `type switch on Artifact does not handle implementation kinddispatch\.Model and has no default`
	case *Pyramid:
		_ = v
	}
}

func exhaustiveImpls(a Artifact) {
	switch a.(type) {
	case *Model:
	case *Pyramid:
	case nil:
	}
}

func defaultedImpl(a Artifact) error {
	switch a.(type) {
	case *Model:
		return nil
	default:
		return errUnknown
	}
}

// otherIface is not named Artifact; type switches over it are out of
// scope no matter how partial.
type otherIface interface{ Kind() string }

func otherSwitch(o otherIface) {
	switch o.(type) {
	case *Model:
	}
}

type lintError string

func (e lintError) Error() string { return string(e) }

var errUnknown error = lintError("unknown artifact kind")
