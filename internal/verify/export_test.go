package verify

// ReferenceCheck exposes the reference verifier to the external
// differential sweep, which imports internal/fuzz (itself a verify user).
var ReferenceCheck = referenceCheck
