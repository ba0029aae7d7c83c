package tmpl

// MaxLiteralChunk exports the literal chunk bound to the external tests.
const MaxLiteralChunk = maxLiteralChunk
