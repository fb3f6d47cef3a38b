(** A scalable synthetic IMDB document generator.

    Generated documents validate against {!Imdb_schema.schema} and
    reproduce the proportions of the Appendix A statistics at any
    scale; the paper's real IMDB-derived dataset is not available, so
    this is the data substrate for shredding, execution and
    integration tests (see DESIGN.md §5).

    Joinability is preserved on purpose: [played] and [directed] titles
    are drawn from the show title pool, and actor and director names
    overlap, so Q12–Q14 return non-empty results. *)

type params = {
  seed : int;
  shows : int;
  movie_frac : float;  (** fraction of shows that are movies *)
  aka_avg : float;  (** average akas per show *)
  reviews_avg : float;  (** average reviews per show *)
  review_sources : (string * float) list;
      (** wildcard tag distribution, fractions summing to ~1 *)
  review_width : int;
  episodes_avg : float;  (** average episodes per TV show *)
  directors : int;
  directed_avg : float;
  actors : int;
  played_avg : float;
  award_frac : float;  (** fraction of played entries with one award *)
  biography_frac : float;
  year_range : int * int;
}

val default : params
(** A small instance (200 shows, 150 actors, 50 directors) suitable
    for unit and integration tests. *)

val scaled : float -> params
(** [scaled f] shrinks the Appendix A full-scale populations by
    factor [f] (averages stay put). *)

val generate : params -> Legodb_xml.Xml.t
(** Deterministic for a given [seed]. *)
