(** Service URIs, hiillos-style: services are addressed by scheme
    ([kv://], [fs:///etc/hosts], [blk://], [http://host/x]) and the name
    service routes on the scheme alone — the path is payload for the
    service behind it. *)

exception Bad_uri of string

val service : string -> string
(** [service uri] is the scheme before [uri]'s first ["://"] — the
    name-service key.
    @raise Bad_uri when the ["://"] separator is missing or the scheme
    is empty / contains anything outside [a-z0-9+.-]. *)

val has_scheme : string -> string -> bool
(** [has_scheme scheme uri] is [service uri = scheme] for a valid
    [scheme], compared in place: nothing is copied, and an invalid
    [uri] is [false] rather than {!Bad_uri}. *)
