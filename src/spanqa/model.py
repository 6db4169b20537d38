"""Model assembly: every parameter bundle plus the shared encode path."""

from dataclasses import dataclass

from .diffmath import ParameterStore, Tensor
from .diffmath.rng import STREAM_INIT, make_rng
from .encoder import (
    CharVocab,
    EncoderConfig,
    EncoderParams,
    Vocab,
    bidaf_attention,
    contextualize,
    embed_tokens,
    init_encoder_params,
    self_attend,
)
from .paragraph_quality import QualityParams, init_quality_params
from .span_decoder import SpanDecoderParams, init_span_decoder_params


@dataclass
class QaModel:
    config: EncoderConfig
    vocab: Vocab
    char_vocab: CharVocab
    encoder: EncoderParams
    decoder: SpanDecoderParams
    quality: QualityParams
    store: ParameterStore
    grad_through_start: bool = True

    @classmethod
    def create(
        cls,
        config: EncoderConfig,
        vocab: Vocab,
        char_vocab: CharVocab,
        seed: int = 0,
        word_init=None,
        grad_through_start: bool = True,
    ) -> "QaModel":
        """Build freshly initialized parameters; the draw order is fixed so a
        given (config, vocab, seed) always produces the same weights."""
        rng = make_rng(seed, STREAM_INIT)
        encoder = init_encoder_params(config, len(vocab), len(char_vocab), rng, word_init)
        decoder = init_span_decoder_params(config.hidden_dim, rng)
        quality = init_quality_params(config.hidden_dim, rng)
        store = ParameterStore()
        for prefix, bundle in (("enc", encoder), ("dec", decoder), ("qual", quality)):
            for name, tensor in bundle.tensors():
                store.register(f"{prefix}/{name}", tensor)
        return cls(
            config=config,
            vocab=vocab,
            char_vocab=char_vocab,
            encoder=encoder,
            decoder=decoder,
            quality=quality,
            store=store,
            grad_through_start=grad_through_start,
        )

    # No caller in the package; the tests' B=1 references use it.
    def encode_question(self, tokens, rng=None, training: bool = False) -> Tensor:
        """Contextual question encoding (m, 2d), shared by every paragraph of
        one example: `encode_questions` of one question."""
        return self.encode_questions([tokens], [rng], training)[0]

    def encode_questions(self, questions, rngs=None, training: bool = False) -> list:
        """`encode_question` of every token list in `questions`, with one
        recurrent pass over all of them.

        rngs[i] drives question i's dropout and is only consulted in
        training mode with keep_prob < 1, so evaluation never touches it.
        """
        embedded = [embed_tokens(tokens, self.vocab, self.char_vocab, self.encoder) for tokens in questions]
        return contextualize(embedded, self.encoder.q_ctx, self.config.keep_prob, rngs, training)

    # No caller in the package; the benchmark's tracer and the tests' B=1 references use it.
    def encode_paragraph(self, question: Tensor, paragraph_tokens, rng=None, training: bool = False) -> Tensor:
        """Question-aware context embedding (n, 2d) for one paragraph, given
        the question's `encode_question` output."""
        return self.encode_paragraphs([question], [paragraph_tokens], [rng], training)[0]

    def encode_paragraphs(self, questions, paragraphs, rngs=None, training: bool = False) -> list:
        """`encode_paragraph` of every token list in `paragraphs`, where
        paragraph i attends to the encoded question questions[i] and draws
        its dropout from rngs[i]; each recurrent layer runs once over all of
        them."""
        embedded = [embed_tokens(tokens, self.vocab, self.char_vocab, self.encoder) for tokens in paragraphs]
        p_ctx = contextualize(embedded, self.encoder.p_ctx, self.config.keep_prob, rngs, training)
        attended = [bidaf_attention(p, q, self.encoder) for p, q in zip(p_ctx, questions, strict=True)]
        return self_attend(attended, self.encoder)
