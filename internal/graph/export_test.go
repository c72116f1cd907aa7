package graph

// LexWeight exposes the loader's weight lexer to the external tests, which
// need gen's graphs (gen imports graph).
var LexWeight = lexWeight
