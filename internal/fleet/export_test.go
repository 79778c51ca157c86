package fleet

// The reference walk and the decode, for the external tests in this
// directory (they import internal/core, which this package's own tests
// cannot).
var (
	RefMarshal   = refMarshal
	RefUnmarshal = refUnmarshal
	RefSchemaOf  = refSchemaOf
	Decode       = unmarshal
)
