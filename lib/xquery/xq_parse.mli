(** Parser for the XQuery subset, accepting the (slightly informal)
    concrete syntax of the paper's appendix:

    {v
    FOR $v IN document("imdbdata")/imdb/show
    WHERE $v/title = c1
    RETURN $v/title, $v/year, $v/type
    v}

    including bare document paths ([FOR $v in imdb/show]), reversed
    bindings ([FOR $v/episode $e]), case-insensitive keywords,
    comma-or-whitespace separated bindings and return items, element
    constructors ([<result> ... </result>]) and nested FLWRs in return
    position, and [(: comments :)].

    {2 One lexer}

    {!parse}, {!parse_update} and {!shape} share one lexer that scans
    the input in place: a token is a kind plus a span of the input,
    keywords are matched case-insensitively without copying, numbers
    are accumulated digit by digit (grouping commas skipped), and a
    payload is copied only where an AST node is built from it.  The
    parsers pull tokens one at a time.  Errors are reported as if the
    whole input were lexed before parsing: the first lexer error
    anywhere in the input wins over a grammar error before it. *)

exception Parse_error of { position : int; message : string }

val parse : ?name:string -> string -> Xq_ast.t
(** Parse one query.  @raise Parse_error on malformed input. *)

val parse_update : ?name:string -> string -> Xq_ast.update
(** Parse one update statement:
    [INSERT imdb/show],
    [FOR $v IN ... WHERE ... DELETE $v], or
    [FOR $v IN ... WHERE ... SET $v/path = c].
    @raise Parse_error *)

val shape : string -> (string * Xq_ast.const array) option
(** [shape text] is a query text's {e shape key} and its WHERE
    constants, from one pass of the lexer, without parsing.

    A {e constant} is a token of the three kinds {!parse} turns into
    [O_const] — a number, a string literal or a non-keyword bare
    identifier ([c1]) — standing immediately after [=].  The key is
    [text] with each constant's span (quotes included) replaced by one
    NUL byte; every other byte stays verbatim, the document name,
    whitespace, comments and keyword case included.  The constants
    come back in textual order, which for this grammar is
    {!Xq_ast.lift}'s slot order: each FLWR's WHERE clause precedes its
    RETURN clause, where its nested FLWRs stand in return order.

    [None] when [text] holds a NUL byte outside its constants: its key
    could not tell a constant from that byte.

    Soundness: if two texts have equal keys, their constants sit at
    the same places, and the bytes between them are equal.  Lexing
    restarts after each constant at the same byte in both texts, and
    no token before a constant reads past it ([=], whitespace or a
    comment precede it), so the two token sequences are equal apart
    from the constants' payloads and kinds.  The parser branches only
    on token kinds, identifier and tag spellings and [document], and
    builds [O_const] from all three constant kinds alike, so two texts
    with equal keys that both parse have bodies that {!Xq_ast.lift}
    to the same template.  The converse does not hold: two spellings
    of one statement (spacing, keyword case) have different keys.

    @raise Parse_error exactly where {!parse}'s lexer does: the first
    lexer error in the text, with the same position and message. *)
