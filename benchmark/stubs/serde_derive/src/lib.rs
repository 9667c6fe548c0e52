//! No-op `Serialize` / `Deserialize` derives (see the `serde` stand-in).

use proc_macro::TokenStream;

/// Expands to nothing.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

/// Expands to nothing.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
