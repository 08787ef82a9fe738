package main

import (
	"math/rand"
	"strconv"
	"strings"

	"dynaminer/internal/httpstream"
	"dynaminer/internal/wcg"
)

// maxCaptureBody is the body cap of the synth capture renderer: a
// response body written into a capture is at most this long, so a
// generated document is too.
const maxCaptureBody = 64 << 10

// fillBodies gives every HTML or JavaScript response that the generator
// left without a body a seeded document of the length the capture
// renderer would have padded it to. The renderer's filler is a run of
// 'x', which no real page resembles: a body scan that bails out early on
// markup-free input would win on it and on nothing deployed. The
// documents carry tags, attributes, links and inline script but no
// redirect construct, so verdicts are those of the filler; bodies the
// generator wrote itself (the redirect-bearing landing pages) are left
// untouched.
func fillBodies(txs []httpstream.Transaction, rng *rand.Rand) {
	for i := range txs {
		tx := &txs[i]
		if len(tx.Body) > 0 || tx.BodySize <= 0 {
			continue
		}
		n := tx.BodySize
		if n > maxCaptureBody {
			n = maxCaptureBody
		}
		switch wcg.ClassifyPayload(tx.URI, tx.ContentType) {
		case wcg.PayloadHTML:
			tx.Body = htmlDocument(n, rng)
		case wcg.PayloadJS:
			tx.Body = scriptDocument(n, rng)
		}
	}
}

var words = []string{
	"news", "search", "video", "login", "account", "store", "cart", "menu",
	"footer", "header", "widget", "banner", "promo", "article", "comment",
	"profile", "gallery", "player", "share", "feed", "card", "panel", "nav",
	"item", "price", "review", "rating", "sidebar", "content", "main",
}

func word(rng *rand.Rand) string { return words[rng.Intn(len(words))] }

// htmlDocument returns an HTML page of exactly n bytes.
func htmlDocument(n int, rng *rand.Rand) []byte {
	var sb strings.Builder
	sb.Grow(n + 512)
	sb.WriteString("<!DOCTYPE html><html lang=\"en\"><head><meta charset=\"utf-8\"><title>")
	sb.WriteString(word(rng))
	sb.WriteString("</title><link rel=\"stylesheet\" href=\"/css/")
	sb.WriteString(word(rng))
	sb.WriteString(".css\"></head><body>\n")
	for sb.Len() < n {
		switch rng.Intn(6) {
		case 0:
			sb.WriteString("<div class=\"" + word(rng) + "-" + word(rng) + "\" id=\"" + word(rng) + strconv.Itoa(rng.Intn(1000)) + "\">")
			sb.WriteString("<p>" + word(rng) + " " + word(rng) + " " + word(rng) + " " + word(rng) + ".</p></div>\n")
		case 1:
			sb.WriteString("<a href=\"/" + word(rng) + "/" + word(rng) + ".html?page=" + strconv.Itoa(rng.Intn(50)) + "\" title=\"" + word(rng) + "\">" + word(rng) + "</a>\n")
		case 2:
			sb.WriteString("<img src=\"/img/" + word(rng) + strconv.Itoa(rng.Intn(500)) + ".png\" alt=\"" + word(rng) + "\" width=\"" + strconv.Itoa(16+rng.Intn(600)) + "\">\n")
		case 3:
			sb.WriteString("<ul class=\"" + word(rng) + "\"><li>" + word(rng) + "</li><li>" + word(rng) + "</li><li>" + word(rng) + "</li></ul>\n")
		case 4:
			sb.WriteString("<script type=\"text/javascript\">")
			sb.WriteString(scriptStatement(rng))
			sb.WriteString("</script>\n")
		default:
			sb.WriteString("<form action=\"/" + word(rng) + "\" method=\"post\"><input type=\"text\" name=\"" + word(rng) + "\" value=\"\"><button>" + word(rng) + "</button></form>\n")
		}
	}
	return pad(sb.String(), n, "</body></html>")
}

// scriptDocument returns a JavaScript file of exactly n bytes.
func scriptDocument(n int, rng *rand.Rand) []byte {
	var sb strings.Builder
	sb.Grow(n + 512)
	sb.WriteString("(function(){\"use strict\";\n")
	for sb.Len() < n {
		sb.WriteString(scriptStatement(rng))
		sb.WriteByte('\n')
	}
	return pad(sb.String(), n, "})();")
}

// scriptStatement is one line of plausible page script. It reads and
// writes the DOM but never assigns a location, so the body sniffer finds
// nothing to follow.
func scriptStatement(rng *rand.Rand) string {
	w1, w2, k := word(rng), word(rng), strconv.Itoa(rng.Intn(100))
	switch rng.Intn(5) {
	case 0:
		return "var " + w1 + k + " = document.getElementById(\"" + w2 + "\");"
	case 1:
		return "function " + w1 + k + "(a, b) { if (a < b) { return b - a; } return a * " + k + "; }"
	case 2:
		return "window.addEventListener(\"load\", function() { " + w1 + ".init({ " + w2 + ": " + k + " }); });"
	case 3:
		return "for (var i = 0; i < " + k + "; i++) { " + w1 + ".push(\"" + w2 + "\" + i); }"
	default:
		return "var s" + k + " = String.fromCharCode(" + strconv.Itoa(97+rng.Intn(26)) + "," + strconv.Itoa(97+rng.Intn(26)) + ");"
	}
}

// pad cuts or extends doc so that, with tail appended, it is exactly n
// bytes long.
func pad(doc string, n int, tail string) []byte {
	out := make([]byte, 0, n)
	if n <= len(tail) {
		return append(out, tail[:n]...)
	}
	if len(doc) > n-len(tail) {
		doc = doc[:n-len(tail)]
	}
	out = append(out, doc...)
	for len(out) < n-len(tail) {
		out = append(out, ' ')
	}
	return append(out, tail...)
}
