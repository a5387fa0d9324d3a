package obs

// ParseChromeCapped is ParseChrome with the reconstruction also capped at
// limit events, so the fuzzer can feed traces that declare huge rings.
var ParseChromeCapped = parseChrome
