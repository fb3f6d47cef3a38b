open Legodb_xquery

(** The XQuery parser as it was before the in-place lexer (frozen; see
    the implementation's header). *)

exception Parse_error of { position : int; message : string }

val parse : ?name:string -> string -> Xq_ast.t
val parse_update : ?name:string -> string -> Xq_ast.update

type token

val tokenize : string -> (int * token) list
(** The whole-input lexer [parse] and [parse_update] run first: raises
    exactly the lexer's errors. *)
